"""JSON and DOT serialization for supersingular graphs and volcanoes.

The JSON schema is the interchange format consumed by the markov command:
{"p":..., "ell":..., "N":..., "vertices":[{"id":..., "j":[c0,c1],
 "point":..., "aut":...}], "arrows":[{"src":..., "dst":..., "kernel":[...],
 "mult":...}]}.  Field element coordinates are coefficient lists over F_p.
"""

import json
import os
import tempfile

from .curves import canonical_ss_model, j_invariant
from .fields import Poly, make_field


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


def _elt_coeffs(e):
    return list(e.coeffs)


def _point_payload(P):
    if P.inf:
        return None
    return {
        "ext_degree": P.field.k,
        "x": list(P.x.coeffs),
        "y": list(P.y.coeffs),
    }


def ssgraph_to_dict(G):
    vertices = []
    for v in G.vertices:
        vertices.append({
            "id": v.id,
            "j": _elt_coeffs(j_invariant(v.curve)),
            "point": _point_payload(v.point),
            "aut": v.aut_order,
        })
    arrows = []
    for ar in G.arrows:
        arrows.append({
            "src": ar.src,
            "dst": ar.dst,
            "kernel": [_elt_coeffs(c) for c in ar.kernel.coeffs],
            "mult": ar.label_orbit_size,
        })
    return {"p": G.p, "ell": G.ell, "N": G.N,
            "vertices": vertices, "arrows": arrows}


class LoadedSSGraph:
    """Structural reconstruction of a serialized graph.

    Curves are rebuilt deterministically through canonical_ss_model, so a
    round trip reproduces the same models; the marked points and kernels are
    restored verbatim.
    """

    def __init__(self, d):
        self.p = d["p"]
        self.ell = d["ell"]
        self.N = d["N"]
        Fp2 = make_field(self.p, 2)
        self.vertex_data = []
        self.curves = []
        for v in d["vertices"]:
            j = Fp2.elt(v["j"])
            E = canonical_ss_model(j)
            self.curves.append(E)
            point = v["point"]
            if point is not None:
                big = make_field(self.p, point["ext_degree"])
                x = big.elt(point["x"])
                y = big.elt(point["y"])
                point = E.point(x, y)
            self.vertex_data.append({"id": v["id"], "j": v["j"],
                                     "point": point, "aut": v["aut"]})
        n = len(self.vertex_data)
        self.adjacency = [[0] * n for _ in range(n)]
        self.arrow_data = []
        for ar in d["arrows"]:
            kernel = Poly(Fp2, [Fp2.elt(c) for c in ar["kernel"]])
            self.arrow_data.append({"src": ar["src"], "dst": ar["dst"],
                                    "kernel": kernel, "mult": ar["mult"]})
            self.adjacency[ar["src"]][ar["dst"]] += 1

    def structure(self):
        return {
            "p": self.p, "ell": self.ell, "N": self.N,
            "vertices": [(v["id"], tuple(v["j"]),
                          None if v["point"] is None else v["point"].key(),
                          v["aut"]) for v in self.vertex_data],
            "arrows": [(a["src"], a["dst"], a["kernel"].key(), a["mult"])
                       for a in self.arrow_data],
        }


def ssgraph_structure(G):
    return {
        "p": G.p, "ell": G.ell, "N": G.N,
        "vertices": [(v.id, tuple(j_invariant(v.curve).coeffs),
                      None if v.point.inf else v.point.key(), v.aut_order)
                     for v in G.vertices],
        "arrows": [(ar.src, ar.dst, ar.kernel.key(), ar.label_orbit_size)
                   for ar in G.arrows],
    }


def load_ssgraph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return LoadedSSGraph(json.load(fh))


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
    atomic_write(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")
