"""The benchmark's workloads: fixed operation lists and the checks of their
outputs.

An operation is one ``heckedyn`` CLI invocation made through
``heckedyn.cli.main``, or a call of the public functions the CLI would make.
Every operation writes its outputs into the pass's work directory.  The seed
orders the independent operation groups and feeds the seeded inputs (the walk
seed, the start of the disc orbit); every other input is fixed.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

from heckedyn import cli, graphio, markov, volcano
from heckedyn.quadforms import prime_class_order

HERE = os.path.dirname(os.path.abspath(__file__))
GRAPHS = os.path.join(HERE, "graphs")
PIN_SEED = 7
WORKLOADS = ("ss_build", "markov_exact", "disc_walk", "ordinary_volcano")

SS_INSTANCES = ((47, 3, 1), (13, 7, 1), (11, 3, 13))
MARKOV_MIXING = ((11, 3, 7), (13, 3, 7), (11, 3, 10))
MARKOV_STATIONARY = (11, 3, 13)
MIXING_EPS = 1e-3
ESCAPE = (-23, 2, 300)          # synthetic volcano disc, ell, walk steps
WALK = dict(p=11, ell=5, N=1, steps=100000)
VOLCANOES = ((1009, 5, 2), (2003, 7, 3), (4001, 5, 2))
RIM = (41, 12, 3)               # split rim of length 2, rim disc -20
DISC_PRECISION = 24
ORBIT_STEPS = 10


class Op:
    """One operation: ``run(workdir)`` returns the exit code; ``check``
    returns a list of problems with the outputs; ``seeded`` outputs depend
    on the seed, so their pinned hashes hold for the pinned seed only."""

    def __init__(self, name, run, outputs, check, seeded=False):
        self.name = name
        self.run = run
        self.outputs = outputs
        self.check = check
        self.seeded = seeded


def graph_path(inst):
    return os.path.join(GRAPHS, "ssgraph_%d_%d_%d.json" % inst)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(workdir, name):
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv):
    """An operation running ``heckedyn`` with ``{out}`` in argv resolved to
    the work directory."""
    def run(workdir):
        return cli.main([a.format(out=workdir + os.sep) for a in argv])
    return run


def build_ops(workload, seed):
    """The operation list of one pass: groups of dependent operations, in
    an order drawn from the seed."""
    groups = _GROUPS[workload](seed)
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]


# ---------------------------------------------------------------------------
# ss_build: three supersingular graphs, each hitting another part of curves

def _ss_groups(seed):
    groups = []
    for inst in SS_INSTANCES:
        stem = "ssgraph_%d_%d_%d" % inst
        argv = ["ssgraph", "-p", str(inst[0]), "-l", str(inst[1]),
                "-N", str(inst[2]), "--out", "{out}%s.json" % stem,
                "--dot", "{out}%s.dot" % stem,
                "--report", "{out}%s.report.json" % stem]
        groups.append([Op(stem, _cli(argv),
                          [stem + ".json", stem + ".dot", stem + ".report.json"],
                          _check_ss(inst, stem))])
    return groups


def ss_count(p):
    """Number of supersingular j over F_{p^2}: floor(p/12) + {0,1,1,2}."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def _out_degree_problems(graph):
    deg = [0] * len(graph["vertices"])
    for ar in graph["arrows"]:
        deg[ar["src"]] += 1
    want = graph["ell"] + 1
    bad = [v for v, d in enumerate(deg) if d != want]
    return ["out-degree != ell+1 at vertices %s" % bad[:5]] if bad else []


def _check_ss(inst, stem):
    p, ell, N = inst

    def check(workdir):
        graph = _load(workdir, stem + ".json")
        report = _load(workdir, stem + ".report.json")
        problems = _out_degree_problems(graph)
        if (graph["p"], graph["ell"], graph["N"]) != inst:
            problems.append("graph header %r" % ((graph["p"], graph["ell"], graph["N"]),))
        if N == 1 and len(graph["vertices"]) != ss_count(p):
            problems.append("%d vertices, supersingular count is %d"
                            % (len(graph["vertices"]), ss_count(p)))
        if set(report["out_degrees"]) != {ell + 1} or not report["connected"]:
            problems.append("report: out-degrees or connectivity wrong")
        return problems
    return check


# ---------------------------------------------------------------------------
# markov_exact: exact stationary vectors and mixing on stored level graphs

def _markov_groups(seed):
    groups = []
    for inst in MARKOV_MIXING + (MARKOV_STATIONARY,):
        stem = "markov_%d_%d_%d" % inst
        argv = ["markov", "--graph", graph_path(inst), "--stationary",
                "--out", "{out}%s.json" % stem]
        mixing = inst != MARKOV_STATIONARY
        if mixing:
            argv[4:4] = ["--mixing", repr(MIXING_EPS)]
        groups.append([Op(stem, _cli(argv), [stem + ".json"],
                          _check_markov(inst, stem, mixing))])
    groups.append([Op("volcano_escape", _escape, ["escape.json"],
                      _check_escape)])
    return groups


def _escape(workdir):
    disc, ell, n = ESCAPE
    res = markov.volcano_escape(volcano.build_synthetic(disc, ell, n + 2), 0, n)
    payload = {"disc": disc, "ell": ell, "steps": n,
               "distribution": [str(x) for x in res["distribution"]],
               "mass_within": [[lvl, str(x)] for lvl, x in res["mass_within"]]}
    graphio.dump_json(payload, os.path.join(workdir, "escape.json"))
    return 0


def _check_markov(inst, stem, mixing):
    def check(workdir):
        with open(graph_path(inst), encoding="utf-8") as fh:
            graph = json.load(fh)
        out = _load(workdir, stem + ".json")
        problems = _out_degree_problems(graph)
        pi = [Fraction(x) for x in out["stationary"]]
        if len(pi) != len(graph["vertices"]) or out["size"] != len(pi):
            return problems + ["stationary vector has the wrong length"]
        if sum(pi) != 1:
            problems.append("sum of pi is %s" % sum(pi))
        step = [Fraction(0)] * len(pi)
        w = Fraction(1, graph["ell"] + 1)
        for ar in graph["arrows"]:
            step[ar["dst"]] += pi[ar["src"]] * w
        if step != pi:
            problems.append("pi T != pi")
        if mixing:
            tv = out["tv_series"]
            if not (0 <= out["second_eigenvalue_modulus"] < 1
                    and out["steps_to_eps"] == len(tv)
                    and tv[-1] < MIXING_EPS <= min(tv[:-1], default=1)):
                problems.append("mixing report inconsistent with eps")
        return problems
    return check


def _check_escape(workdir):
    out = _load(workdir, "escape.json")
    dist = [Fraction(x) for x in out["distribution"]]
    cum = [Fraction(x) for _, x in out["mass_within"]]
    problems = []
    if sum(dist) != 1 or min(dist) < 0:
        problems.append("escape distribution is not a probability vector")
    if cum[-1] != 1 or any(a > b for a, b in zip(cum, cum[1:])):
        problems.append("mass_within is not a cumulative distribution")
    return problems


# ---------------------------------------------------------------------------
# disc_walk: the README's walk measure at k = 1 and k = 2

def _walk_groups(seed):
    groups = []
    for k in (1, 2):
        stem = "walk_k%d" % k
        argv = ["--seed", str(seed), "dyn", "walk-measure",
                "-p", str(WALK["p"]), "-l", str(WALK["ell"]),
                "-N", str(WALK["N"]), "--steps", str(WALK["steps"]),
                "-k", str(k), "--out", "{out}%s.json" % stem,
                "--tv-csv", "{out}%s.csv" % stem]
        groups.append([Op(stem, _cli(argv),
                          [stem + ".json", stem + ".csv"],
                          _check_walk(k, stem, seed), seeded=True)])
    return groups


def _check_walk(k, stem, seed):
    def check(workdir):
        out = _load(workdir, stem + ".json")
        problems = []
        steps = WALK["steps"]
        if sum(out["histogram"].values()) != steps or out["steps"] != steps:
            problems.append("histogram total != --steps")
        if out["classes_visited"] != len(out["histogram"]) \
                or out["classes_total"] != WALK["p"] ** (2 * k) \
                or len(out["histogram"]) > out["classes_total"]:
            problems.append("class counts inconsistent")
        if out["seed"] != seed or out["k"] != k:
            problems.append("seed or k not echoed")
        with open(os.path.join(workdir, stem + ".csv"), encoding="utf-8") as fh:
            rows = fh.read().split("\n")
        want = ["n,tv"] + [str(steps // d) for d in (8, 4, 2, 1)] + [""]
        got = [r.split(",")[0] if i else r for i, r in enumerate(rows)]
        if got != want or not all(0 <= float(r.split(",")[1]) <= 1
                                  for r in rows[1:-1]):
            problems.append("TV checkpoints malformed")
        return problems
    return check


# ---------------------------------------------------------------------------
# ordinary_volcano: empirical volcanoes against the class-group prediction,
# then the rim endomorphism and the disc dynamics of its unit ratio

def _volcano_groups(seed):
    groups = []
    for inst in VOLCANOES:
        p, j, ell = inst
        emp = "volcano_%d" % p
        syn = "synthetic_%d" % p
        argv = ["volcano", "-p", str(p), "--j", str(j), "-l", str(ell),
                "--out", "{out}%s.json" % emp, "--dot", "{out}%s.dot" % emp]
        groups.append([
            Op(emp, _cli(argv), [emp + ".json", emp + ".dot"],
               _check_volcano(emp)),
            Op(syn, _synthetic_op(emp, syn), [syn + ".json"],
               _check_synthetic(emp, syn)),
        ])
    p = RIM[0]
    t0 = p * (1 + seed % (p - 1))
    groups.append([
        Op("rim_endo", _rim_endo, ["rim_endo.json"], _check_rim_endo),
        Op("dyn_orbit", _dyn_op(["orbit", "--t", str(t0), "-n", str(ORBIT_STEPS)],
                                "dyn_orbit"),
           ["dyn_orbit.json"], _check_orbit(t0), seeded=True),
        Op("dyn_closure", _dyn_op(["closure"], "dyn_closure"),
           ["dyn_closure.json"], _check_closure),
    ])
    return groups


def _synthetic_op(emp, syn):
    """``volcano --disc`` at the rim discriminant the empirical run found."""
    def run(workdir):
        vol = _load(workdir, emp + ".json")
        return cli.main(["volcano", "--disc", str(vol["rim_disc"]),
                         "-l", str(vol["ell"]), "--depth", str(vol["true_depth"]),
                         "--out", os.path.join(workdir, syn + ".json")])
    return run


def _level_sizes(vol):
    levels = [v["level"] for v in vol["vertices"]]
    return [levels.count(i) for i in range(max(levels) + 1)]


def _check_volcano(emp):
    def check(workdir):
        vol = _load(workdir, emp + ".json")
        if not vol["complete"] or any(v["level"] is None for v in vol["vertices"]):
            return ["empirical volcano incomplete or unlevelled"]
        return []
    return check


def _check_synthetic(emp, syn):
    def check(workdir):
        vol = _load(workdir, emp + ".json")
        out = _load(workdir, syn + ".json")
        a, ell, kron = out["rim_size"], out["ell"], out["kron"]
        formula = [a] + [a * (ell - kron) * ell ** (i - 1)
                         for i in range(1, vol["true_depth"] + 1)]
        if not (out["level_sizes"] == formula == _level_sizes(vol)):
            return ["level sizes: empirical %s, synthetic %s, formula %s"
                    % (_level_sizes(vol), out["level_sizes"], formula)]
        return []
    return check


def _rim_endo(workdir):
    """Endomorphisms of the closed rim 2-walks, the class-group witness, and
    the unit ratio lambda of the non-scalar one."""
    p, j, ell = RIM
    vol = volcano.build_empirical(p, j, ell)
    rim = vol.rim_vertices()
    there = [a.index for a in vol.arrows if a.src == rim[0] and a.dst == rim[1]]
    back = [a.index for a in vol.arrows if a.src == rim[1] and a.dst == rim[0]]
    endos = sorted({volcano.walk_endo_empirical(vol, [i, k])
                    for i in there for k in back})
    order, witness = prime_class_order(vol.rim_disc, ell)
    t, n = next(e for e in endos if e[0] * e[0] != 4 * e[1])
    lam = volcano.lambda_of_endo(t, n, p, DISC_PRECISION)
    payload = {"p": p, "j": j, "ell": ell, "rim_disc": vol.rim_disc,
               "rim_size": len(rim), "endos": endos,
               "class_order": order, "witness": list(witness),
               "lambda": [x.val for x in lam]}
    graphio.dump_json(payload, os.path.join(workdir, "rim_endo.json"))
    return 0


def _dyn_op(args, stem):
    """``dyn <args> -p p --lam lambda`` with lambda from the rim endomorphism."""
    def run(workdir):
        lam = _load(workdir, "rim_endo.json")["lambda"][0]
        return cli.main(["dyn", args[0], "-p", str(RIM[0]), "--lam", str(lam),
                         "-M", str(DISC_PRECISION)] + args[1:]
                        + ["--out", os.path.join(workdir, stem + ".json")])
    return run


def _check_rim_endo(workdir):
    out = _load(workdir, "rim_endo.json")
    t, n = out["witness"]
    ell = out["ell"]
    scalar = [2 * ell, ell * ell]
    if out["class_order"] != out["rim_size"] or not (
            sorted([[t, n], scalar]) == out["endos"]
            or sorted([[-t, n], scalar]) == out["endos"]):
        return ["rim endomorphisms %s do not match the witness %s up to sign"
                % (out["endos"], out["witness"])]
    return []


def _check_orbit(t0):
    p = RIM[0]
    v0 = 0
    while t0 % p ** (v0 + 1) == 0:
        v0 += 1

    def check(workdir):
        orbit = _load(workdir, "dyn_orbit.json")["orbit"]
        # a unit lambda makes (1+t)^lambda - 1 an isometry of the disc
        if len(orbit) != ORBIT_STEPS or any(o["valuation"] != v0 for o in orbit):
            return ["orbit left the circle of valuation %d" % v0]
        return []
    return check


def _check_closure(workdir):
    out = _load(workdir, "dyn_closure.json")
    lam = _load(workdir, "rim_endo.json")["lambda"][0]
    p = RIM[0]
    r = out["teich_order"]
    if (p - 1) % r or pow(lam, r, p) != 1 or any(
            pow(lam, d, p) == 1 for d in range(1, r)):
        return ["teich_order %d is not the order of lambda mod p" % r]
    return []


_GROUPS = {
    "ss_build": _ss_groups,
    "markov_exact": _markov_groups,
    "disc_walk": _walk_groups,
    "ordinary_volcano": _volcano_groups,
}
