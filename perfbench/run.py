"""The heckedyn benchmark: fixed CLI workloads timed end to end, with a
separate traced run for the per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``heckedyn`` from ``src/``.
NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn.  Within S seconds the run measures set-up time in several fresh
processes, then runs whole passes of the workload, each in a fresh process,
while another pass still fits.  Every output file of every pass is checked
(pinned sha256 and independent oracles).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the machine, goes to
``.perfbench/results/``.
"""

import argparse
import compileall
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7
# Typical time of worker.reference_chunk() on the machine where the benchmark
# was defined (2-core x86-64 VM, Python 3.11).  Times are reported at the
# speed at which the chunk takes this long.
NOMINAL_CHUNK_S = 0.0017
WORKER_TIMEOUT = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def warm_pyc():
    """Compile the package and the benchmark ahead of timing; report whether
    every .pyc was already current."""
    warm = True
    for d in (os.path.join(SRC, "heckedyn"), HERE):
        for name in os.listdir(d):
            if name.endswith(".py"):
                src = os.path.join(d, name)
                pyc = importlib.util.cache_from_source(src)
                if not (os.path.exists(pyc)
                        and os.path.getmtime(pyc) >= os.path.getmtime(src)):
                    warm = False
        compileall.compile_dir(d, maxlevels=0, quiet=1)
    return warm


def machine_record(seed, pyc_warm):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_ENV, "seed": seed, "pyc_warm": pyc_warm}


def _env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload, seed, tag, trace=False, setup_only=False):
    """Run the worker once; returns its report, the seconds from spawn to
    ready, and the work directory holding its outputs."""
    workdir = os.path.join(OUT, "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    report_path = workdir + ".report.json"
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), workdir, report_path]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n" + proc.stderr)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return report, report["ready"] - t0, workdir


def speed_factor(report):
    """Nominal over measured machine speed during a worker's timed span.

    The speed samples are spread evenly in time, so the work the machine
    did is proportional to the mean of 1/chunk time; a time measured at
    that speed, times this factor, is the time at the nominal speed."""
    samples = report["chunk_s"]
    return NOMINAL_CHUNK_S * sum(1 / c for c in samples) / len(samples)


def check_pass(workload, seed, report, workdir, pins=None):
    """Per-operation verdicts: exit code, pinned hashes (when ``pins`` is
    given), oracles.  Adds each operation's output sha256 and problems to
    its entry in ``report``."""
    import workloads
    ops = {op.name: op for op in workloads.build_ops(workload, seed)}
    verdicts = []
    for res in report["ops"]:
        op = ops[res["name"]]
        problems = []
        res["sha256"] = {}
        if res["rc"] != 0:
            problems.append("exit code %r %s" % (res["rc"], res["error"] or ""))
        else:
            for name in op.outputs:
                path = os.path.join(workdir, name)
                if not os.path.exists(path):
                    problems.append("missing output " + name)
                    continue
                digest = res["sha256"][name] = workloads.sha256(path)
                if (pins is not None
                        and (seed == pins["pin_seed"] or not op.seeded)
                        and digest != pins["outputs"][workload].get(name)):
                    problems.append("sha256 of %s differs from the pin" % name)
            if not problems:
                try:
                    problems += op.check(workdir)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems.append("check raised %r" % exc)
        res["problems"] = problems
        verdicts.append(not problems)
    return verdicts


def run_workload(name, seed, seconds, trace, pins):
    import workloads
    deadline = time.monotonic() + seconds
    tag = "%s-s%d-t%d" % (name, seed, trace)
    setups = []     # (raw seconds, seconds at the nominal speed)
    if not trace:
        for i in range(SETUP_PROBES):
            report, setup, workdir = spawn(name, seed, "%s-setup%d" % (tag, i),
                                           setup_only=True)
            shutil.rmtree(workdir)
            setups.append((setup, setup * speed_factor(report)))
    passes, verdicts = [], []
    longest = 0.0
    while not passes or time.monotonic() + longest <= deadline:
        t0 = time.monotonic()
        report, _, workdir = spawn(name, seed, "%s-pass%d" % (tag, len(passes)),
                                   trace=trace)
        longest = max(longest, time.monotonic() - t0)
        verdicts += check_pass(name, seed, report, workdir, pins)
        shutil.rmtree(workdir)
        report["wall_nominal_s"] = report["wall_s"] * speed_factor(report)
        passes.append(report)
    failed = verdicts.count(False)
    raw = {"wall_s": statistics.median(p["wall_s"] for p in passes)}
    if trace:
        metrics = {key: {"value": statistics.median(p["layers"][key] for p in passes),
                         "unit": _layer_unit(key)}
                   for key in passes[0]["layers"]}
        metrics["trace.wall_s"] = {"value": statistics.median(
            p["wall_nominal_s"] for p in passes), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(
                p["wall_nominal_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["maxrss_kb"] / 1024 for p in passes), "unit": "MB"},
        }
        raw["setup_s"] = statistics.median(s for s, _ in setups)
    return {"workload": name, "seed": seed, "trace": trace,
            "correct": failed == 0, "attempted": len(verdicts),
            "failed": failed, "ops_failed_ratio": failed / len(verdicts),
            "metrics": metrics, "raw": raw, "setup_samples_s": setups, "passes": passes,
            "ops_per_pass": len(workloads.build_ops(name, seed))}


def _layer_unit(key):
    if key.endswith("_ratio"):
        return "ratio"
    return "count" if key.endswith(".calls") else "s"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "heckedyn", "__init__.py")):
        sys.exit("perfbench: no heckedyn package under %s; run from the root "
                 "of a heckedyn checkout" % SRC)
    sys.path.insert(0, SRC)
    import workloads
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        sys.exit("perfbench: unknown workload %r" % args.workload)
    pins = _json("pinned.json")
    for path, digest in pins["inputs"].items():
        if workloads.sha256(os.path.join(HERE, path)) != digest:
            sys.exit("perfbench: input %s differs from its pinned hash" % path)
    record = machine_record(args.seed, warm_pyc())
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, pins)
        res["machine"] = record
        path = os.path.join(OUT, "results", "%s-s%d-t%d.json"
                            % (name, args.seed, args.trace))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        for key, m in res["metrics"].items():
            print("%s %s = %.6g %s" % (name, key, m["value"], m["unit"]))
        for key, value in res["raw"].items():
            print("%s %s unscaled = %.6g s" % (name, key, value))
        print("%s ops_failed_ratio = %.4g (%d failed / %d attempted)"
              % (name, res["ops_failed_ratio"], res["failed"], res["attempted"]))
        for p in res["passes"]:
            for op in p["ops"]:
                if op["problems"]:
                    print("%s FAILED %s: %s" % (name, op["name"], "; ".join(op["problems"])))
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): m
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
