"""JSON and DOT serialization for supersingular graphs and volcanoes.

The JSON schema is the interchange format consumed by the markov command:
{"p":..., "ell":..., "N":..., "vertices":[{"id":..., "j":[c0,c1],
 "point":..., "aut":...}], "arrows":[{"src":..., "dst":..., "kernel":[...],
 "mult":...}]}.  Field element coordinates are coefficient lists over F_p.

load_ssgraph reads structure only: the vertex j, marked points and kernels
are kept as their integer encodings, and no curve, extension field or
polynomial is built.  A file that breaks the schema raises UsageError
naming the defect: an unreadable file or invalid JSON; a missing key or a
value of the wrong kind; p not a prime >= 11, ell < 2 or N < 1; a vertex
id that is not its position; a coefficient outside [0, p), or more of them
than the field degree (2 for j and kernel coefficients, ext_degree for
points); an arrow end that is not a vertex index; aut or mult below 1.
Each distinct j must pass the Hasse test, else NotSupersingular.
"""

import json
import os
import sys
import tempfile
from collections import namedtuple

from .curves import is_supersingular, j_invariant, model_from_j
from .errors import NotSupersingular, UsageError
from .fields import encode, make_field


def atomic_write(path, text):
    """Write via a temporary file and rename, so readers never see partials."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def ssgraph_to_dict(G):
    vertices = [{"id": v.id, "j": list(j_invariant(v.curve).coeffs),
                 "point": None if v.point.inf else {
                     "ext_degree": v.point.field.k,
                     "x": list(v.point.x.coeffs),
                     "y": list(v.point.y.coeffs)},
                 "aut": v.aut_order} for v in G.vertices]
    arrows = [{"src": ar.src, "dst": ar.dst,
               "kernel": [list(c.coeffs) for c in ar.kernel.coeffs],
               "mult": ar.label_orbit_size} for ar in G.arrows]
    return {"p": G.p, "ell": G.ell, "N": G.N,
            "vertices": vertices, "arrows": arrows}


Vertex = namedtuple("Vertex", "id j point aut")
Arrow = namedtuple("Arrow", "src dst kernel mult")
SSGraphStructure = namedtuple("SSGraphStructure", "p ell N vertices arrows")


def ssgraph_structure(G):
    """The structure of a built graph, as load_ssgraph reads it back."""
    return SSGraphStructure(
        G.p, G.ell, G.N,
        [Vertex(v.id, j_invariant(v.curve).enc(),
                None if v.point.inf else v.point.key(), v.aut_order)
         for v in G.vertices],
        [Arrow(ar.src, ar.dst, ar.kernel.key(), ar.label_orbit_size)
         for ar in G.arrows])


def _int(x, what, lo, hi=None):
    if type(x) is not int or x < lo or (hi is not None and x >= hi):
        raise UsageError("%s is %r, not an integer in [%d, %s)"
                         % (what, x, lo, "" if hi is None else hi))
    return x


def _enc(p, coeffs, k, what):
    """The encoding of an element of F_{p^k} given as at most k
    coefficients in [0, p)."""
    if not isinstance(coeffs, list) or len(coeffs) > k:
        raise UsageError("%s is not a list of at most %d coefficients"
                         % (what, k))
    for c in coeffs:
        _int(c, what + " coefficient", 0, p)
    return encode(p, coeffs)


def load_ssgraph(path):
    """The structure of a graph JSON file, equal to ssgraph_structure of
    the graph it was written from.  No curve is rebuilt; the file is
    validated as described in the module docstring."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read graph file %s: %s"
                         % (path, exc.strerror or exc))
    except ValueError as exc:
        raise UsageError("graph file %s is not JSON: %s" % (path, exc))
    where = "graph"
    try:
        p = _int(d["p"], "p", 11)
        ell = _int(d["ell"], "ell", 2)
        N = _int(d["N"], "N", 1)
        vertices = []
        for i, v in enumerate(d["vertices"]):
            where = "vertex %d" % i
            _int(v["id"], where + " id", i, i + 1)
            point = v["point"]
            if point is not None:
                k = _int(point["ext_degree"], where + " ext_degree", 1)
                point = tuple(_enc(p, point[c], k, "%s point %s" % (where, c))
                              for c in "xy")
            vertices.append(Vertex(i, _enc(p, v["j"], 2, where + " j"), point,
                                   _int(v["aut"], where + " aut", 1)))
        n = len(vertices)
        arrows = []
        for i, ar in enumerate(d["arrows"]):
            where = "arrow %d" % i
            encs = [_enc(p, c, 2, where + " kernel") for c in ar["kernel"]]
            while encs and encs[-1] == 0:
                encs.pop()
            arrows.append(Arrow(_int(ar["src"], where + " src", 0, n),
                                _int(ar["dst"], where + " dst", 0, n),
                                (len(encs) - 1, tuple(encs)),
                                _int(ar["mult"], where + " mult", 1)))
    except KeyError as exc:
        raise UsageError("%s has no key %s" % (where, exc))
    except TypeError:  # a JSON value of the wrong kind indexed or iterated
        raise UsageError("%s does not follow the graph schema" % where)
    Fp2 = make_field(p, 2)
    for j in sorted({v.j for v in vertices}):
        if not is_supersingular(model_from_j(Fp2, Fp2.from_enc(j))):
            raise NotSupersingular("j = %d is not supersingular at p = %d"
                                   % (j, p))
    return SSGraphStructure(p, ell, N, vertices, arrows)


def ssgraph_to_dot(G):
    lines = ["digraph ssgraph {"]
    for v in G.vertices:
        j = j_invariant(v.curve)
        lines.append('  v%d [label="j=%d aut=%d"];' % (v.id, j.enc(), v.aut_order))
    for ar in G.arrows:
        lines.append('  v%d -> v%d [label="%d"];' % (ar.src, ar.dst,
                                                     ar.label_orbit_size))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# volcano exports share the vertex/arrow shape (N = 1, levels attached)

def volcano_to_dict(vol):
    vertices = []
    enc_to_id = {}
    for enc, vid in sorted(vol.j_index.items(), key=lambda kv: kv[1]):
        enc_to_id[vid] = enc
    for vid in range(len(vol.curves)):
        vertices.append({
            "id": vid,
            "j": [enc_to_id[vid]],
            "point": None,
            "level": None if vol.levels is None else vol.levels[vid],
            "degree": vol.vertex_degree[vid],
        })
    arrows = []
    for ar in vol.arrows:
        arrows.append({
            "src": ar.src,
            "dst": ar.dst,
            "kernel": [[c.enc()] for c in ar.kernel.coeffs],
            "mult": 1,
        })
    return {
        "p": vol.p, "ell": vol.ell, "N": 1,
        "kind": "ordinary-volcano",
        "frobenius_trace": vol.frobenius_trace,
        "field_disc": vol.field_disc,
        "rim_disc": vol.rim_disc,
        "true_depth": vol.true_depth,
        "complete": vol.complete,
        "vertices": vertices, "arrows": arrows,
    }


def synthetic_to_dict(V):
    return {
        "kind": "synthetic-volcano",
        "disc": V.disc, "ell": V.ell, "depth": V.depth,
        "kron": V.kron,
        "rim_size": V.rim_size,
        "rim_type": V.rim_type,
        "rim_endo": None if V.rim_endo is None else list(V.rim_endo),
        "level_sizes": V.level_sizes,
    }


def volcano_to_dot(vol):
    lines = ["digraph volcano {"]
    for enc, v in sorted(vol.j_index.items(), key=lambda kv: kv[1]):
        lvl = "?" if vol.levels is None else vol.levels[v]
        lines.append('  v%d [label="j=%d lvl=%s"];' % (v, enc, lvl))
    for ar in vol.arrows:
        lines.append("  v%d -> v%d;" % (ar.src, ar.dst))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_json(obj, path):
    """obj as indented JSON with sorted keys, written atomically to path, or
    to stdout when path is None, empty or "-"."""
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if path and path != "-":
        atomic_write(path, text)
    else:
        sys.stdout.write(text)
