import hashlib
import json
import os

import pytest

from heckedyn.cli import main
from heckedyn.graphio import (dump_json, load_ssgraph, ssgraph_structure,
                              ssgraph_to_dict)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ssgraph_report(tmp_path, capsys):
    code, out, err = run(["ssgraph", "-p", "11", "-l", "5", "-N", "1",
                          "--report"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["connected"] is True
    assert rep["bipartite"] is False


def test_ssgraph_rejects_even_ell(capsys):
    code, out, err = run(["ssgraph", "-p", "11", "-l", "2", "-N", "1"], capsys)
    assert code == 1
    assert "ell must be odd" in err


def test_ssgraph_rejects_shared_factor(capsys):
    code, out, err = run(["ssgraph", "-p", "11", "-l", "3", "-N", "33"], capsys)
    assert code == 1
    assert "gcd(N, p*ell) != 1" in err


def test_ssgraph_json_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "graph.json")
    dot = str(tmp_path / "graph.dot")
    code, out, err = run(["ssgraph", "-p", "11", "-l", "5", "-N", "1",
                          "--out", path, "--dot", dot], capsys)
    assert code == 0
    assert os.path.exists(path) and os.path.exists(dot)
    loaded = load_ssgraph(path)
    from heckedyn.ssgraph import build_ssgraph
    G = build_ssgraph(11, 5, 1)
    assert loaded == ssgraph_structure(G)
    # round trip through the dict twice is stable
    again = str(tmp_path / "again.json")
    dump_json(ssgraph_to_dict(G), again)
    assert load_ssgraph(again) == loaded
    text = open(dot).read()
    assert text.startswith("digraph")


def test_ssgraph_json_roundtrip_with_points(tmp_path, capsys):
    path = str(tmp_path / "g45.json")
    code, out, err = run(["ssgraph", "-p", "11", "-l", "3", "-N", "4",
                          "--out", path], capsys)
    assert code == 0
    loaded = load_ssgraph(path)
    from heckedyn.ssgraph import build_ssgraph
    assert loaded == ssgraph_structure(build_ssgraph(11, 3, 4))


GRAPH_11_3_7 = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "graphs", "ssgraph_11_3_7.json")


def _set(keys, value):
    def edit(d):
        for k in keys[:-1]:
            d = d[k]
        d[keys[-1]] = value
    return edit


def _drop_kernel(d):
    del d["arrows"][0]["kernel"]


# one defect per case, made in the stored (11, 3, 7) graph, whose marked
# points live in F_{11^6}
MALFORMED = [
    ("dst", _set(["arrows", 0, "dst"], 999),
     "arrow 0 dst is 999, not an integer in [0, 20)"),
    ("kernel", _drop_kernel, "arrow 0 has no key 'kernel'"),
    ("point", _set(["vertices", 0, "point", "x"], [1] * 9),
     "vertex 0 point x is not a list of at most 6 coefficients"),
    ("coeff", _set(["vertices", 0, "j"], [11, 0]),
     "vertex 0 j coefficient is 11, not an integer in [0, 11)"),
    ("j_len", _set(["vertices", 0, "j"], [0, 0, 0]),
     "vertex 0 j is not a list of at most 2 coefficients"),
    ("kernel_len", _set(["arrows", 0, "kernel", 0], [0, 0, 0]),
     "arrow 0 kernel is not a list of at most 2 coefficients"),
    ("ordinary", _set(["vertices", 0, "j"], [2, 0]),
     "j = 2 is not supersingular at p = 11"),
]


@pytest.mark.parametrize("name,edit,msg", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_markov_rejects_malformed_graph(name, edit, msg, tmp_path, capsys):
    with open(GRAPH_11_3_7, encoding="utf-8") as fh:
        d = json.load(fh)
    edit(d)
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh)
    code, out, err = run(["markov", "--graph", path], capsys)
    assert code == 1
    assert msg in err and "Traceback" not in err


@pytest.mark.parametrize("text,msg", [(None, "cannot read graph file"),
                                      ('{"p": 11,', "is not JSON")])
def test_markov_rejects_unreadable_graph(text, msg, tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    if text is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    code, out, err = run(["markov", "--graph", path], capsys)
    assert code == 1
    assert msg in err and "Traceback" not in err


def test_volcano_synthetic(capsys):
    code, out, err = run(["volcano", "--disc", "-15", "-l", "2",
                          "--depth", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["level_sizes"] == [2, 2, 4]


def test_volcano_excluded_disc(capsys):
    code, out, err = run(["volcano", "--disc", "-3", "-l", "2",
                          "--depth", "1"], capsys)
    assert code == 1


@pytest.mark.parametrize("where", [["--disc", "-15"],
                                   ["-p", "41", "--j", "12"]])
def test_volcano_rejects_negative_depth(where, capsys, monkeypatch):
    import heckedyn.volcano

    def refuse(*args):
        raise AssertionError("curve work before the depth check")
    monkeypatch.setattr(heckedyn.volcano, "model_from_j", refuse)
    code, out, err = run(["volcano"] + where + ["-l", "3", "--depth", "-1"],
                         capsys)
    assert code == 1
    assert "depth must be >= 0" in err and out == ""


def test_volcano_empirical(capsys):
    code, out, err = run(["volcano", "-p", "11", "--j", "5", "-l", "2",
                          "--depth", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 11 and payload["ell"] == 2
    # rim degree = 1 + kron(disc, 2)
    from heckedyn.quadforms import kronecker
    deg = payload["vertices"][0]["degree"]
    assert deg == 1 + kronecker(payload["field_disc"], 2)


def test_dyn_orbit_valuations(capsys):
    code, out, err = run(["dyn", "orbit", "-p", "5", "--lam", "2",
                          "--t", "5", "-n", "10", "-M", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["orbit"]) == 10
    assert all(item["valuation"] == 1 for item in payload["orbit"])


def test_dyn_periodic(capsys):
    code, out, err = run(["dyn", "periodic", "-p", "5", "--lam", "6",
                          "-a", "1", "-m", "1"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out, err = run(["dyn", "periodic", "-p", "5", "--lam", "6",
                          "-a", "2", "-m", "1"], capsys)
    assert code == 0 and out.strip() == "false"


def test_dyn_closure(capsys):
    code, out, err = run(["dyn", "closure", "-p", "5", "--lam", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["component_count"] == 4
    assert payload["wild_valuation"] == 1


@pytest.mark.parametrize("command", [
    ["dyn", "orbit", "--lam", "3", "--t", "9", "-M", "5"],
    ["dyn", "closure", "--lam", "3", "-M", "5"],
    ["dyn", "periodic", "--lam", "7", "-a", "1"],
])
@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_dyn_rejects_a_p_that_is_not_prime(capsys, command, p):
    # p = 0 used to die in a ZeroDivisionError, p = 4 to print a
    # descriptor of "Z_4" and p = 6 to answer true
    code, out, err = run(command + ["-p", str(p)], capsys)
    assert code == 1 and out == ""
    assert "p = %d is not prime" % p in err


@pytest.mark.parametrize("argv, digest", [
    (["dyn", "closure", "-p", "5", "--lam", "2", "-M", "8"],
     "f7ec366771f858853334056ecedb63bd1f7119f3440b49b6e00d557e7e0a0139"),
    (["dyn", "closure", "-p", "2", "--lam", "7", "-M", "8"],
     "b4a66d2a52a7b8f3932f2d5d6a06d6d68cb1968ced81f97901aa1c04b5808774"),
    (["dyn", "orbit", "-p", "5", "--lam", "2", "--t", "5", "-n", "3",
      "-M", "4"],
     "46a93be235f8db035bfb017d01901e21af78ca937afc9598e6fc145c85aff0f0"),
    (["dyn", "orbit", "-p", "2", "--lam", "3", "--t", "4", "-n", "3",
      "-M", "6"],
     "cb672b2c145bd8f911631a4636dba9b2ca1c0e5706cd17e5e1e1edcd7dbb6168"),
])
def test_dyn_output_at_prime_p_is_pinned(capsys, argv, digest):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dyn_periodic_at_p_2_and_5(capsys):
    assert run(["dyn", "periodic", "-p", "5", "--lam", "26", "-a", "2"],
               capsys)[1] == "true\n"
    assert run(["dyn", "periodic", "-p", "2", "--lam", "5", "-a", "3"],
               capsys)[1] == "false\n"


def test_dyn_closure_at_2_31_minus_1(capsys):
    # the order of 7 mod 2^31 - 1 from the primes of 2^31 - 2, no p-step loop
    code, out, err = run(["dyn", "closure", "-p", "2147483647", "--lam", "7",
                          "-M", "24"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["teich_order"] == payload["component_count"] == 2 ** 31 - 2
    assert payload["wild_valuation"] == 1 and payload["finite"] is False


def test_dump_json_writes_stdout_for_none_and_dash(tmp_path, capsys):
    obj = {"b": [1, None, 2.5], "a": {"y": True, "x": "s"}}
    path = str(tmp_path / "obj.json")
    dump_json(obj, path)
    with open(path) as fh:
        text = fh.read()
    assert text == json.dumps(obj, indent=1, sort_keys=True) + "\n"
    for target in (None, "-"):
        dump_json(obj, target)
        assert capsys.readouterr().out == text
    assert not os.path.exists("-")


def test_markov_stationary_cli(tmp_path, capsys):
    path = str(tmp_path / "graph.json")
    run(["ssgraph", "-p", "11", "-l", "5", "-N", "1", "--out", path], capsys)
    code, out, err = run(["markov", "--graph", path, "--stationary"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["stationary"]) == ["2/5", "3/5"]


def test_markov_single_vertex_cli(tmp_path, capsys):
    path = str(tmp_path / "g13.json")
    run(["ssgraph", "-p", "13", "-l", "5", "-N", "1", "--out", path], capsys)
    code, out, err = run(["markov", "--graph", path, "--stationary",
                          "--mixing", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["stationary"] == ["1"]


def test_deterministic_outputs(tmp_path, capsys):
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    run(["ssgraph", "-p", "11", "-l", "3", "-N", "5", "--out", p1], capsys)
    run(["ssgraph", "-p", "11", "-l", "3", "-N", "5", "--out", p2], capsys)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_walk_measure_small(tmp_path, capsys):
    out_path = str(tmp_path / "m.json")
    csv_path = str(tmp_path / "tv.csv")
    code, out, err = run(["--seed", "7", "dyn", "walk-measure", "-p", "11",
                          "-l", "5", "-N", "1", "--steps", "4000", "-k", "1",
                          "--out", out_path, "--tv-csv", csv_path], capsys)
    assert code == 0
    payload = json.loads(open(out_path).read())
    assert payload["classes_total"] == 121
    assert payload["classes_visited"] > 60
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "n,tv" and len(lines) >= 4


def test_walk_measure_rejects_bad_inputs(tmp_path, capsys):
    base = ["dyn", "walk-measure", "-p", "11", "-l", "5"]
    for extra, msg in ((["-k", "-1"], "-k must be >= 1"),
                       (["-k", "0"], "-k must be >= 1"),
                       (["--steps", "0"], "--steps must be >= 1"),
                       (["--budget", "0"], "--budget must be >= 1"),
                       (["--budget", "-1"], "--budget must be >= 1"),
                       (["-k", "5", "-M", "5"], "need -M >= 6")):
        out_path = str(tmp_path / "m.json")
        code, out, err = run(base + extra + ["--out", out_path], capsys)
        assert code == 1 and msg in err
        assert not os.path.exists(out_path)


def test_walk_measure_low_precision_exits_1(capsys):
    code, out, err = run(["dyn", "walk-measure", "-p", "11", "-l", "5",
                          "-M", "3", "--steps", "10"], capsys)
    assert code == 1
    assert "invariant breach" not in err and "precision 3" in err


def test_walk_measure_short_walk_csv(tmp_path, capsys):
    # --steps 10 asks for checkpoints 0, 1, 2, 5, 10; step 0 is never walked
    out_path = str(tmp_path / "m.json")
    csv_path = str(tmp_path / "tv.csv")
    code, out, err = run(["--seed", "7", "dyn", "walk-measure", "-p", "11",
                          "-l", "5", "--steps", "10", "-M", "4",
                          "--out", out_path, "--tv-csv", csv_path], capsys)
    assert code == 0
    assert sum(json.loads(open(out_path).read())["histogram"].values()) == 10
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "n,tv"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "5", "10"]


def test_python_dash_m_help():
    import subprocess
    import sys

    import heckedyn
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(heckedyn.__file__)))
    proc = subprocess.run([sys.executable, "-m", "heckedyn", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: heckedyn")


def test_ssgraph_report_at_p_257(capsys):
    code, out, err = run(["ssgraph", "-p", "257", "-l", "3", "-N", "1",
                          "--report"], capsys)
    assert code == 0
    rep = json.loads(out)
    # 257 = 5 mod 12: floor(257/12) + 1 supersingular j
    assert rep["out_degrees"] == [4] * 22
    assert rep["connected"] is True


@pytest.mark.parametrize("argv, msg", [
    (["orbit", "-p", "5", "--lam", "2", "--t", "5"], "precision"),
    (["closure", "-p", "5", "--lam", "2"], "precision"),
    (["periodic", "-p", "5", "--lam", "2", "-a", "1"], "precision"),
    (["walk-measure", "-p", "11", "-l", "5", "--steps", "10"], "need -M >= 2"),
])
def test_dyn_precision_zero_exits_1(tmp_path, capsys, argv, msg):
    # -M 0 is a given precision, not "unset": it must not fall back to the
    # default and succeed
    out_path = str(tmp_path / "out.json")
    extra = [] if argv[0] == "periodic" else ["--out", out_path]
    code, out, err = run(["dyn"] + argv + ["-M", "0"] + extra, capsys)
    assert code == 1 and msg in err
    assert not os.path.exists(out_path)


@pytest.mark.parametrize("value, msg", [("abc", "HECKEDYN_PRECISION"),
                                        ("0", "precision")])
def test_precision_variable_rejects_bad_values(monkeypatch, capsys, value,
                                                msg):
    # a value that is not an integer names the variable; 0 is used as
    # given and rejected like -M 0, not raised to a working precision
    monkeypatch.setenv("HECKEDYN_PRECISION", value)
    code, out, err = run(["dyn", "closure", "-p", "5", "--lam", "2"], capsys)
    assert code == 1 and msg in err and out == ""


@pytest.mark.parametrize("argv", [
    ["dyn", "closure", "-p", "5", "--lam", "2"],
    ["dyn", "orbit", "-p", "5", "--lam", "2", "--t", "5", "-n", "10"],
])
def test_precision_variable_matches_flag(monkeypatch, capsys, argv):
    monkeypatch.delenv("HECKEDYN_PRECISION", raising=False)
    flag = run(argv + ["-M", "6"], capsys)
    monkeypatch.setenv("HECKEDYN_PRECISION", "6")
    env = run(argv, capsys)
    assert flag[0] == 0 and env == flag
    if argv[1] == "orbit":
        monkeypatch.delenv("HECKEDYN_PRECISION")
        assert run(argv, capsys) != flag
