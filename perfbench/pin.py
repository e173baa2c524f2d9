"""Regenerate pinned.json from the current code.

    python3 perfbench/pin.py

Run from the root of a checkout.  Runs one untraced pass of every workload at
the pinned seed and records the sha256 of every output, plus the sha256 of
the stored input graphs.  It refuses to pin a pass whose operations fail or
whose outputs fail an oracle, and checks that the stored (11,3,13) graph is
byte-identical to the one ss_build produces.
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def main():
    seed = workloads.PIN_SEED
    pins = {"pin_seed": seed, "inputs": {}, "outputs": {}}
    for name in sorted(os.listdir(workloads.GRAPHS)):
        rel = "graphs/" + name
        pins["inputs"][rel] = workloads.sha256(os.path.join(run.HERE, rel))
    for w in workloads.WORKLOADS:
        report, _, workdir = run.spawn(w, seed, "pin-" + w)
        run.check_pass(w, seed, report, workdir)
        shutil.rmtree(workdir)
        for res in report["ops"]:
            if res["problems"]:
                sys.exit("%s %s: %s" % (w, res["name"], res["problems"]))
        pins["outputs"][w] = {name: digest for res in report["ops"]
                              for name, digest in res["sha256"].items()}
    stored = pins["inputs"]["graphs/ssgraph_11_3_13.json"]
    if pins["outputs"]["ss_build"]["ssgraph_11_3_13.json"] != stored:
        sys.exit("stored graph ssgraph_11_3_13.json differs from ss_build's")
    with open(os.path.join(run.HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
