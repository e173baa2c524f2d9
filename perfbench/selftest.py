"""The benchmark's own test.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Run from the root of a checkout.  For every workload (or those named) it runs
one untraced and one traced pass with the same seed and asserts that every
output file is byte-identical between them, so tracing cannot change results.
Both passes must also pass the oracles.  It prints each workload's tracing
overhead, and checks that BENCHMARK.json declares exactly the metrics the
benchmark reports.  Exits 1 on any failure.
"""

import argparse
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def checked_pass(workload, seed, trace):
    """One pass with its outputs checked against the pins and oracles; returns the
    output sha256 by file, the worker report and the verdict."""
    report, _, workdir = run.spawn(workload, seed, "selftest-%s-t%d"
                                   % (workload, trace), trace=trace)
    ok = all(run.check_pass(workload, seed, report, workdir,
                            run._json("pinned.json")))
    shutil.rmtree(workdir)
    hashes = {name: digest for res in report["ops"]
              for name, digest in res["sha256"].items()}
    return hashes, report, ok


def declared_metrics_problems(layer_names):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    if {m["name"] for m in bench["end_to_end"]} != {"wall_s", "setup_s", "peak_rss_mb"}:
        problems.append("BENCHMARK.json end_to_end differs from run.py's metrics")
    if {m["name"] for m in bench["per_layer"]} != set(layer_names) | {"trace.wall_s"}:
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=workloads.PIN_SEED)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    failures = []
    layer_names = None
    for w in args.workloads:
        plain, plain_report, plain_ok = checked_pass(w, args.seed, False)
        traced, traced_report, traced_ok = checked_pass(w, args.seed, True)
        layer_names = traced_report["layers"]
        same = plain == traced
        plain_s, traced_s = (r["wall_s"] * run.speed_factor(r)
                             for r in (plain_report, traced_report))
        print("%s: %d outputs %s; wall %.2f s untraced, %.2f s traced "
              "(overhead %+.1f%%, %d spans)"
              % (w, len(plain), "identical" if same else "DIFFER",
                 plain_s, traced_s, 100 * (traced_s / plain_s - 1),
                 traced_report["spans"]))
        if not same:
            failures.append("%s: traced outputs differ from untraced" % w)
        if not (plain_ok and traced_ok):
            failures.append("%s: an operation failed or an oracle rejected "
                            "its outputs" % w)
    failures += declared_metrics_problems(layer_names)
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
