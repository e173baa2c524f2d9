"""Command-line interface: reproducible, file-based workflows.

Exit codes: 0 success, 1 user error, 2 internal invariant breach.  The last
case is how the acceptance suite detects violations of structural guarantees.
"""

import argparse
import math
import os
import sys
from fractions import Fraction

from . import discdyn, graphio, markov, padics, ssgraph, volcano
from .errors import (Bipartite, BudgetExhausted, HeckedynError,
                     InvariantBreach, NonPrime, UsageError)
from .fields import is_prime
from .padics import DEFAULT_PRECISION, PadicNumber, wq


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _precision(args):
    """-M when given, else $HECKEDYN_PRECISION when set and non-empty, else
    the package default.  Either value is used as given, 0 included (every
    command rejects it); a variable that is not an integer is a usage error."""
    if args.M is not None:
        return args.M
    env = os.environ.get("HECKEDYN_PRECISION")
    if not env:
        return DEFAULT_PRECISION
    try:
        return int(env)
    except ValueError:
        raise UsageError("HECKEDYN_PRECISION must be an integer, got %r"
                         % env) from None


def build_parser():
    top = _Parser(prog="heckedyn",
                  description="isogeny graphs and p-adic Hecke dynamics")
    top.add_argument("--seed", type=int, default=0,
                     help="run-level seed for all randomized steps")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ssgraph", parents=[], help="build a supersingular graph")
    g.add_argument("-p", type=int, required=True)
    g.add_argument("-l", "--ell", type=int, required=True)
    g.add_argument("-N", type=int, default=1)
    g.add_argument("--out", help="write graph JSON here")
    g.add_argument("--dot", help="write DOT here")
    g.add_argument("--report", nargs="?", const="-",
                   help="write the structural report (default stdout)")
    g.set_defaults(run=cmd_ssgraph)

    v = sub.add_parser("volcano", help="build an isogeny volcano")
    v.add_argument("--disc", type=int, help="synthetic: discriminant of the rim order")
    v.add_argument("-p", type=int, help="empirical: base prime")
    v.add_argument("--j", type=int, help="empirical: starting j invariant")
    v.add_argument("-l", "--ell", type=int, required=True)
    v.add_argument("--depth", type=int, default=None)
    v.add_argument("--out", help="write JSON here")
    v.add_argument("--dot", help="write DOT here (empirical only)")
    v.set_defaults(run=cmd_volcano)

    d = sub.add_parser("dyn", help="disc dynamics")
    dsub = d.add_subparsers(dest="dyn_command", required=True)

    orb = dsub.add_parser("orbit", help="iterate t -> (1+t)^lam - 1")
    orb.add_argument("-p", type=int, required=True)
    orb.add_argument("--lam", "--lambda", dest="lam", type=int, required=True)
    orb.add_argument("--t", type=int, required=True)
    orb.add_argument("-n", type=int, default=10)
    orb.add_argument("-M", type=int, default=None)
    orb.add_argument("--out")
    orb.set_defaults(run=cmd_dyn_orbit)

    clo = dsub.add_parser("closure", help="orbit closure descriptor")
    clo.add_argument("-p", type=int, required=True)
    clo.add_argument("--lam", "--lambda", dest="lam", type=int, required=True)
    clo.add_argument("-M", type=int, default=None)
    clo.add_argument("--out")
    clo.set_defaults(run=cmd_dyn_closure)

    per = dsub.add_parser("periodic", help="is the p^a circle m-periodic")
    per.add_argument("-p", type=int, required=True)
    per.add_argument("--lam", "--lambda", dest="lam", type=int, required=True)
    per.add_argument("-a", type=int, required=True)
    per.add_argument("-m", type=int, default=1)
    per.add_argument("-M", type=int, default=None)
    per.set_defaults(run=cmd_dyn_periodic)

    wm = dsub.add_parser("walk-measure", help="random walk empirical measure")
    wm.add_argument("-p", type=int, required=True)
    wm.add_argument("-l", "--ell", type=int, required=True)
    wm.add_argument("-N", type=int, default=1)
    wm.add_argument("--steps", type=int, default=100000)
    wm.add_argument("-k", type=int, default=1)
    wm.add_argument("--budget", type=int, default=3)
    wm.add_argument("-M", type=int, default=None)
    wm.add_argument("--out")
    wm.add_argument("--tv-csv", help="write dyadic TV checkpoints as CSV")
    wm.set_defaults(run=cmd_dyn_walk_measure)

    m = sub.add_parser("markov", help="analyze a graph JSON file")
    m.add_argument("--graph", required=True)
    m.add_argument("--stationary", action="store_true")
    m.add_argument("--mixing", type=float, default=None,
                   help="epsilon in (0, 1) for the mixing report")
    m.add_argument("--out")
    m.set_defaults(run=cmd_markov)

    return top


def cmd_ssgraph(args):
    if args.ell % 2 == 0:
        raise UsageError("ell must be odd")
    if args.N < 1 or math.gcd(args.N, args.p * args.ell) != 1:
        raise UsageError("gcd(N, p*ell) != 1")
    G = ssgraph.build_ssgraph(args.p, args.ell, args.N)
    if args.out:
        graphio.dump_json(graphio.ssgraph_to_dict(G), args.out)
    if args.dot:
        graphio.atomic_write(args.dot, graphio.ssgraph_to_dot(G))
    if args.report:
        rep = ssgraph.graph_report(G)
        graphio.dump_json(rep, args.report)
    if not (args.out or args.dot or args.report):
        graphio.dump_json({"vertices": len(G.vertices),
                           "arrows": len(G.arrows)}, None)
    return 0


def cmd_volcano(args):
    if args.disc is not None:
        for flag, value in (("-p", args.p), ("--j", args.j),
                            ("--dot", args.dot)):
            if value is not None:
                raise UsageError("%s is for empirical volcanoes, not --disc"
                                 % flag)
        depth = args.depth if args.depth is not None else 0
        V = volcano.build_synthetic(args.disc, args.ell, depth)
        payload = graphio.synthetic_to_dict(V)
        graphio.dump_json(payload, args.out)
        return 0
    if args.p is None or args.j is None:
        raise UsageError("need either --disc or both -p and --j")
    vol = volcano.build_empirical(args.p, args.j, args.ell, args.depth)
    payload = graphio.volcano_to_dict(vol)
    if args.dot:
        graphio.atomic_write(args.dot, graphio.volcano_to_dot(vol))
    graphio.dump_json(payload, args.out)
    return 0


def cmd_dyn_orbit(args):
    if args.n < 0:
        raise UsageError("-n must be >= 0")
    M = _precision(args)
    t = PadicNumber(args.p, M, args.t)
    lam = PadicNumber(args.p, M, args.lam)
    auto = discdyn.DiscAutomorphism(lam)
    orbit = []
    cur = t
    for _ in range(args.n):
        cur = discdyn.apply(auto, cur)
        orbit.append({"digits": cur.digits(), "valuation":
                      None if cur.val == 0 else cur.valuation()})
    graphio.dump_json({"p": args.p, "precision": M, "orbit": orbit}, args.out)
    return 0


def cmd_dyn_closure(args):
    M = _precision(args)
    lam = PadicNumber(args.p, M, args.lam)
    d = padics.orbit_closure(lam)
    graphio.dump_json({
        "p": args.p,
        "teich_order": d.teich_order,
        "wild_valuation": d.wild_valuation,
        "component_count": d.component_count,
        "radius_exponent": d.radius_exponent,
        "finite": d.finite,
    }, args.out)
    return 0


def cmd_dyn_periodic(args):
    M = _precision(args)
    lam = PadicNumber(args.p, M, args.lam)
    res = discdyn.classify_periodic(lam, args.m, args.a)
    sys.stdout.write("true\n" if res else "false\n")
    return 0


def cmd_dyn_walk_measure(args):
    if args.ell % 2 == 0:
        raise UsageError("ell must be odd")
    M = _precision(args)
    if args.k < 1:
        raise UsageError("-k must be >= 1")
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if M < args.k + 1:
        raise UsageError("classes mod p^%d need -M >= %d" % (args.k, args.k + 1))
    G = ssgraph.build_ssgraph(args.p, args.ell, args.N)
    odd_walk = ssgraph.odd_closed_walk(G, 0, args.budget)
    walks = ssgraph.closed_walks(G, 0, args.budget)
    gens = [discdyn.identity_unit(args.p, M)]
    seen = set()
    for w in walks:
        t, n = e = ssgraph.walk_char_poly(G, w)
        if e in seen:
            continue
        seen.add(e)
        if t * t == 4 * n:
            continue
        gens.append(discdyn.quat_embed(t, n, args.p, M))
    x0 = discdyn.DiscPoint(wq(args.p, M, args.p, 0))
    cps = [args.steps // 16, args.steps // 8, args.steps // 4,
           args.steps // 2, args.steps]
    measure, snaps = discdyn.random_walk(gens, x0, args.steps, args.seed,
                                         k=args.k, checkpoints=cps)
    hist = {"%d,%d" % key: cnt for key, cnt in sorted(measure.counts.items())}
    payload = {
        "p": args.p, "ell": args.ell, "N": args.N, "steps": args.steps,
        "k": args.k, "seed": args.seed,
        "generators": len(gens),
        "classes_visited": len(measure.counts),
        "classes_total": args.p ** (2 * args.k),
        "odd_walk_len": len(odd_walk),
        "histogram": hist,
    }
    graphio.dump_json(payload, args.out)
    if args.tv_csv:
        rows = ["n,tv"]
        for i in range(1, len(snaps)):
            tv = snaps[i][1].tv_distance(snaps[i - 1][1])
            rows.append("%d,%.8f" % (snaps[i][0], tv))
        graphio.atomic_write(args.tv_csv, "\n".join(rows) + "\n")
    return 0


def cmd_markov(args):
    # mixing_report compares TV with eps at denominator 10**12, where an eps
    # at or below 5e-13 is 0 and no step reaches it
    if args.mixing is not None and not (
            0 < args.mixing < 1
            and Fraction(args.mixing).limit_denominator(10 ** 12) > 0):
        raise UsageError("--mixing must be in (0, 1) and above 5e-13, got %r"
                         % args.mixing)
    L = graphio.load_ssgraph(args.graph)
    T = markov.normalize(L)
    payload = {"p": L.p, "ell": L.ell, "N": L.N, "size": len(L.vertices)}
    rep = None
    if args.mixing is not None:
        try:
            rep = markov.mixing_report(T, args.mixing)
        except Bipartite:
            payload["mixing"] = "bipartite: no mixing"
        else:
            payload["second_eigenvalue_modulus"] = rep["second_eigenvalue_modulus"]
            payload["steps_to_eps"] = rep["steps_to_eps"]
            payload["tv_series"] = [float(x) for x in rep["tv_series"]]
    if args.stationary or args.mixing is None:
        pi = rep["stationary"] if rep is not None else markov.stationary(T)
        payload["stationary"] = ["%s" % x for x in pi]
    graphio.dump_json(payload, args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the p-adic classes take p on trust; walk-measure checks it when it
        # builds the graph
        if (args.command == "dyn" and args.dyn_command != "walk-measure"
                and not is_prime(args.p)):
            raise NonPrime("p = %d is not prime" % args.p)
        return args.run(args)
    except InvariantBreach as exc:
        sys.stderr.write("invariant breach: %s\n" % exc)
        return 2
    except BudgetExhausted as exc:
        sys.stderr.write("search budget exhausted: %s\n" % exc)
        return 1
    except HeckedynError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
