"""Span tracing of heckedyn's public functions, installed from outside the
package.

Each traced function is replaced by a wrapper in every ``heckedyn`` module
that binds its name (``ssgraph`` imports ``canonical_ss_model`` by name, for
example), so calls made through any of those names are seen.  A wrapper
records one span (name, start, end, parent) in memory; the spans are
aggregated, and optionally written out, only after the timed operations.
"""

import functools
import sys
import time

# The useful-work ratios: distinct results (keyed per operation) over calls.
# Each entry is (ratio name, function whose results are keyed, key of one
# call from (args, result), function whose calls are the denominator).
RATIOS = (
    ("curves.count_points.useful_ratio", "curves.canonical_ss_model",
     lambda args, res: (res.field.p, res.a.enc(), res.b.enc()),
     "curves.count_points"),
    ("ssgraph.walk_char_poly.useful_ratio", "ssgraph.walk_char_poly",
     lambda args, res: (id(args[0]), tuple(args[1])),
     "ssgraph.walk_char_poly"),
)


class Tracer:
    """Wraps the functions named in the layer map and records their spans."""

    def __init__(self, functions):
        self.functions = functions
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = {}
        self.distinct = {name: 0 for name, _, _, _ in RATIOS}
        self._op_keys = {name: set() for name, _, _, _ in RATIOS}
        self._stack = []

    def install(self):
        keyed = {fn: (ratio, key) for ratio, fn, key, _ in RATIOS}
        for f in self.functions:
            module = sys.modules["heckedyn." + f["module"]]
            owner, attr = module, f["attr"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(module, cls)
            orig = getattr(owner, attr)
            if f["kind"] == "count":
                wrapper = self._counter(f["name"], orig)
            else:
                wrapper = self._span(f["name"], orig, keyed.get(f["name"]))
            if owner is module:
                _rebind(orig, wrapper)
            else:
                setattr(owner, attr, wrapper)

    def end_op(self):
        """Close the per-operation scope of the distinct-result sets."""
        for name, keys in self._op_keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _span(self, name, fn, keyed):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = key = None
        if keyed is not None:
            keys, key = self._op_keys[keyed[0]], keyed[1]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if keys is not None:
                keys.add(key(args, res))
            return res
        return wrapped

    def summary(self):
        """Per-layer metrics: X.calls, X.s (outermost spans only, so that
        recursion is not counted twice), X.self_s (span time minus the time
        of its direct child spans), plus the count-only calls and ratios."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for f in self.functions:
            out[f["name"] + ".calls"] = self.counts.get(f["name"], 0)
            if f["kind"] == "span":
                out[f["name"] + ".s"] = 0.0
                out[f["name"] + ".self_s"] = 0.0
        for i, (name, t0, t1, parent) in enumerate(spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += t1 - t0 - child[i]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                out[name + ".s"] += t1 - t0
        for ratio, _, _, denom in RATIOS:
            calls = out[denom + ".calls"]
            out[ratio] = self.distinct[ratio] / calls if calls else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (i, name, t0, t1, parent))


def _rebind(orig, wrapper):
    for modname, module in list(sys.modules.items()):
        if modname != "heckedyn" and not modname.startswith("heckedyn."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
