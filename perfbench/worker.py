"""One pass of a workload in a fresh, single-threaded Python process.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR REPORT [--trace] [--setup-only]

The process imports ``heckedyn`` from ``src/`` of the checkout it runs in,
builds the operation list, and then issues the operations one after another
(a closed loop with one client).  While they run, a timer signal times a
short fixed reference loop every 0.1 s, in the same process and so on the
same CPU at the same moment; these samples are the yardstick of the
machine's speed, and their own time is taken out of the operation times.
It writes a JSON report: the monotonic time at which the first operation
could start, each operation's exit code and time, the speed samples, the
pass wall time and the peak resident memory.
With --trace the functions of layer_map.json are wrapped and their per-layer
metrics are added; the spans go to REPORT with the suffix ``.spans.tsv``.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CHUNK_LOOPS = 8000
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLES = 20


def reference_chunk():
    """Seconds taken by a fixed loop of small-integer arithmetic, the kind
    of work heckedyn's field layer does."""
    t0 = time.perf_counter()
    acc = 1
    for i in range(CHUNK_LOOPS):
        acc = (acc * 48271 + i) % 2147483647
    return time.perf_counter() - t0


class SpeedSampler:
    """Times reference_chunk on SIGALRM every SAMPLE_EVERY_S seconds."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        c = reference_chunk()
        self.samples.append(c)
        self.spent += c

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv):
    workload, seed, workdir, report_path = argv[:4]
    seed = int(seed)
    sys.path.insert(0, SRC)
    import heckedyn.cli  # noqa: F401  (every module a CLI user loads)
    import workloads
    import tracer
    if not os.path.abspath(heckedyn.__file__).startswith(SRC + os.sep):
        raise SystemExit("heckedyn was not imported from %s" % SRC)
    ops = workloads.build_ops(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    tr = None
    if "--trace" in argv:
        with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
            tr = tracer.Tracer(json.load(fh)["functions"])
        tr.install()
    report = {"ready": time.monotonic()}
    if "--setup-only" in argv:
        report["chunk_s"] = [reference_chunk() for _ in range(SETUP_SAMPLES)]
        _write(report_path, report)
        return
    results = []
    with SpeedSampler() as sampler:
        for op in ops:
            error = None
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                rc = op.run(workdir)
            except Exception:  # the pass goes on; the failure is reported
                rc = None
                error = traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
            if tr is not None:
                tr.end_op()
            results.append({"name": op.name, "rc": rc, "error": error,
                            "s": t1 - t0 - (sampler.spent - spent)})
    # a pass shorter than one sampling period still needs a speed sample
    report["chunk_s"] = sampler.samples or [reference_chunk()]
    report["ops"] = results
    report["wall_s"] = sum(r["s"] for r in results)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tr is not None:
        report["layers"] = tr.summary()
        report["spans"] = len(tr.spans)
        tr.write_spans(report_path + ".spans.tsv")
    _write(report_path, report)


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


if __name__ == "__main__":
    main(sys.argv[1:])
