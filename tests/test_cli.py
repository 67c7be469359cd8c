import json
import math

import mpmath as mp
import pytest

from zetasolve import cli
from zetasolve.cli import _parse_quadrature, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    """Write a payload as JSON; a string is written as it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


I2 = {"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}


def test_zeta_value(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s": 3})
    code, out, _ = run_cli(capsys, "zeta", "-i", path)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["value_re"] == pytest.approx(4.658913943663181, abs=1e-6)
    assert rec["value_im"] == 0.0
    assert rec["abs_error"] < 1e-8


def test_zeta_special_value(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s": 0})
    code, out, _ = run_cli(capsys, "zeta", "-i", path)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["value_re"] == pytest.approx(-1.0, abs=1e-10)


def test_zeta_pole_exit(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s": 1})
    code, _, err = run_cli(capsys, "zeta", "-i", path)
    assert code == 3
    assert "pole" in err


@pytest.mark.parametrize("s", [200.5, -200.5])
def test_zeta_far_from_origin_exits_documented(tmp_path, capsys, s):
    # Gamma(s) and Gamma(n/2 - s) leave the double range here: the value is
    # either checked against the closed form 4 zeta(s) beta(s) or refused
    path = write(tmp_path, "in.json", {"Q": I2, "s": s})
    code, out, err = run_cli(capsys, "zeta", "-i", path)
    assert code in (0, 4)
    if code == 4:
        assert err.startswith("evaluation failed:")
        return
    rec = json.loads(out.strip())
    want = complex(4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]))
    assert abs(complex(rec["value_re"], rec["value_im"]) - want) <= rec["abs_error"]


def test_zeta_unknown_field_rejected(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s": 3, "bogus": 1})
    code, _, err = run_cli(capsys, "zeta", "-i", path)
    assert code == 2
    assert "bogus" in err


def test_zeta_vector_records(tmp_path, capsys):
    path = write(tmp_path, "in.json",
                 {"A": I2, "b": {"v": [1.0, 0.0]}, "s": 4})
    code, out, _ = run_cli(capsys, "zeta", "-i", path)
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["component"] for r in recs] == [1, 2]
    assert recs[1]["value_re"] == pytest.approx(0.0, abs=1e-12)


def test_zeta_s_list_and_csv(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s_list": [3, 4]})
    code, out, _ = run_cli(capsys, "zeta", "-i", path, "-o", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "s"
    assert len(lines) == 3


def test_theta_command(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "t": 1.0, "tol": 1e-13})
    code, out, _ = run_cli(capsys, "theta", "-i", path)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["value"] == pytest.approx(0.18034059901609623, abs=1e-12)


def test_residue_command(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2})
    code, out, _ = run_cli(capsys, "residue", "-i", path)
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    sources = {r["source"]: r for r in recs}
    assert sources["analytic"]["residue"] == pytest.approx(math.pi, rel=1e-12)
    assert sources["numeric"]["residue"] == pytest.approx(math.pi, abs=1e-8)


@pytest.mark.parametrize("command", ["residue", "zeta"])
def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, command):
    # on the contour the error is wrapped as EvaluationFailure; elsewhere
    # main maps MemoryError itself
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "lattice_zeta", exhausted)
    path = write(tmp_path, "in.json", {"Q": I2, "s": 3} if command == "zeta" else {"Q": I2})
    code, out, err = run_cli(capsys, command, "-i", path)
    assert code == 4
    assert out == ""
    assert err.startswith("evaluation failed:")
    if command == "zeta":
        assert err == "evaluation failed: out of memory\n"


def test_funceq_command(tmp_path, capsys):
    path = write(tmp_path, "in.json",
                 {"family": "lattice", "Q": I2, "s": {"re": 0.7, "im": 0.3}})
    code, out, _ = run_cli(capsys, "funceq", "-i", path)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["residual"] < 1e-8


def test_solve_routes_and_exit_codes(tmp_path, capsys):
    base = {"A": {"n": 2, "rows": [[2.0, 1.0], [1.0, 3.0]]},
            "b": {"v": [5.0, 10.0]}}
    path = write(tmp_path, "in.json", {**base, "route": "residues"})
    code, out, _ = run_cli(capsys, "solve", "-i", path)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["x"]["v"] == pytest.approx([1.0, 3.0], abs=1e-12)

    path = write(tmp_path, "in2.json", {
        **base, "route": "integrals",
        "quadrature": {"method": "circle_trapezoid", "nodes": 1024},
    })
    code, out, _ = run_cli(capsys, "solve", "-i", path)
    assert code == 0

    path = write(tmp_path, "in3.json", {
        "A": {"n": 2, "rows": [[1.0, 1.0], [1.0, 1.0]]},
        "b": {"v": [1.0, 2.0]}, "route": "residues",
    })
    code, _, err = run_cli(capsys, "solve", "-i", path)
    assert code == 5
    assert "singular" in err


def test_solve_tolerance_failure(tmp_path, capsys):
    payload = {"A": {"n": 2, "rows": [[2.0, 1.0], [1.0, 3.0]]},
               "b": {"v": [5.0, 10.0]},
               "route": "integrals", "tolerance": 1e-14,
               "quadrature": {"method": "monte_carlo", "nodes": 1000, "seed": 5}}
    path = write(tmp_path, "in.json", payload)
    code, out, err = run_cli(capsys, "solve", "-i", path)
    assert code == 4
    assert "tolerance" in err
    json.loads(out.strip())  # report still emitted


def test_solve_tolerance_validation(tmp_path, capsys):
    payload = {"A": I2, "b": {"v": [1.0, 1.0]}, "route": "residues",
               "tolerance": 0.5}
    path = write(tmp_path, "in.json", payload)
    code, _, err = run_cli(capsys, "solve", "-i", path)
    assert code == 2


def test_scan_rows_and_pole_flag(tmp_path, capsys):
    path = write(tmp_path, "in.json",
                 {"Q": I2, "s_start": 0.5, "s_end": 1.5, "steps": 5})
    code, out, _ = run_cli(capsys, "scan", "-i", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_s,im_s,re_zeta,im_zeta,abs_err,flag"
    assert len(lines) == 6
    flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert len(flagged) == 1 and flagged[0].startswith("1,")
    assert flagged[0].split(",")[2] == ""  # empty value fields


def test_scan_single_step_matches_zeta(tmp_path, capsys):
    path = write(tmp_path, "in.json",
                 {"Q": {"n": 2, "rows": [[1.0, 0.0], [0.0, 4.0]]},
                  "s_start": 3.0, "s_end": 3.0, "steps": 1})
    code, out, _ = run_cli(capsys, "scan", "-i", path)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    path2 = write(tmp_path, "in2.json",
                  {"Q": {"n": 2, "rows": [[1.0, 0.0], [0.0, 4.0]]}, "s": 3.0})
    _, out2, _ = run_cli(capsys, "zeta", "-i", path2)
    rec = json.loads(out2.strip())
    assert float(row[2]) == pytest.approx(rec["value_re"], rel=1e-15)
    # several steps: the scan and a zeta s_list of its points are one batch each
    path = write(tmp_path, "in3.json",
                 {"Q": {"n": 2, "rows": [[1.0, 0.0], [0.0, 4.0]]},
                  "s_start": [0.3, -1.0], "s_end": [3.5, 2.0], "steps": 4})
    code, out, _ = run_cli(capsys, "scan", "-i", path)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 4 and all(r[5] == "0" for r in rows)
    path2 = write(tmp_path, "in4.json",
                  {"Q": {"n": 2, "rows": [[1.0, 0.0], [0.0, 4.0]]},
                   "s_list": [[float(r[0]), float(r[1])] for r in rows]})
    code, out2, _ = run_cli(capsys, "zeta", "-i", path2)
    assert code == 0
    recs = [json.loads(line) for line in out2.strip().splitlines()]
    for r, rec in zip(rows, recs):
        assert [float(x) for x in r[:5]] == [*rec["s"], rec["value_re"], rec["value_im"],
                                             rec["abs_error"]]


def test_scan_all_points_at_pole(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s_start": 1, "s_end": 1, "steps": 3})
    code, out, _ = run_cli(capsys, "scan", "-i", path)
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,,,,1"] * 3


def test_scan_bad_range(tmp_path, capsys):
    path = write(tmp_path, "in.json",
                 {"Q": I2, "s_start": 2.0, "s_end": 3.0, "steps": 0})
    code, _, _ = run_cli(capsys, "scan", "-i", path)
    assert code == 2


def test_byte_determinism(tmp_path, capsys):
    payload = {"A": {"n": 2, "rows": [[2.0, 1.0], [1.0, 3.0]]},
               "b": {"v": [5.0, 10.0]}, "route": "integrals", "tolerance": 1e-2,
               "quadrature": {"method": "monte_carlo", "nodes": 20000, "seed": 7}}
    path = write(tmp_path, "in.json", payload)
    _, out1, _ = run_cli(capsys, "solve", "-i", path)
    _, out2, _ = run_cli(capsys, "solve", "-i", path)
    assert out1 == out2
    path = write(tmp_path, "scan.json",
                 {"Q": I2, "s_start": 2.0, "s_end": 4.0, "steps": 4})
    _, s1, _ = run_cli(capsys, "scan", "-i", path)
    _, s2, _ = run_cli(capsys, "scan", "-i", path)
    assert s1 == s2


def test_seed_flag_overrides(tmp_path, capsys):
    payload = {"A": {"n": 2, "rows": [[2.0, 1.0], [1.0, 3.0]]},
               "b": {"v": [5.0, 10.0]}, "route": "integrals", "tolerance": 1e-2,
               "quadrature": {"method": "monte_carlo", "nodes": 20000, "seed": 7}}
    path = write(tmp_path, "in.json", payload)
    _, out1, _ = run_cli(capsys, "solve", "-i", path)
    _, out2, _ = run_cli(capsys, "solve", "-i", path, "--seed", "8")
    assert json.loads(out1)["method"]["seed"] == 7
    assert json.loads(out2)["method"]["seed"] == 8
    assert out1 != out2


def test_verify_user_cases(tmp_path, capsys):
    for s in ({"re": 0.6, "im": 0.1}, [0.6, 0.1]):
        payload = {"cases": [{"check": "funceq_lattice", "Q": I2, "s": s}]}
        path = write(tmp_path, "in.json", payload)
        code, out, _ = run_cli(capsys, "verify", "-i", path)
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["status"] == "pass"
        assert rec["measured"] < rec["bound"]


def test_verify_overtight_bound_fails(tmp_path, capsys):
    payload = {"cases": [{"check": "funceq_lattice", "Q": I2,
                          "s": {"re": 0.6, "im": 0.1}}],
               "tolerance": 1e-300}
    path = write(tmp_path, "in.json", payload)
    code, out, err = run_cli(capsys, "verify", "-i", path)
    assert code == 4
    rec = json.loads(out.strip())
    assert rec["status"] == "FAIL"
    assert "failed" in err


def test_emitted_records_reparse(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"Q": I2, "s_list": [2.5, 3.5]})
    _, out, _ = run_cli(capsys, "zeta", "-i", path)
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"s", "value_re", "value_im", "abs_error"}
        assert isinstance(rec["s"], list) and len(rec["s"]) == 2


def test_bench_runs(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"repeat": 1})
    code, out, _ = run_cli(capsys, "bench", "-i", path)
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert {"task", "runs", "seconds_total", "ms_per_run"} <= set(recs[0])


LATTICE_CASE = {"check": "funceq_lattice", "Q": I2, "s": 0.6}
SOLVE_MC = {"A": I2, "b": [1.0, 2.0], "route": "integrals"}
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
I5 = [[float(i == j) for j in range(5)] for i in range(5)]


@pytest.mark.parametrize("command, payload", [
    ("verify", {"cases": [{**LATTICE_CASE, "s": {"im": 1}}]}),
    ("verify", {"cases": [{"check": "funceq_lattice", "s": 0.6}]}),
    ("verify", {"cases": [{**LATTICE_CASE, "bogus": 1}]}),
    ("verify", {"cases": [LATTICE_CASE], "tolerance": "x"}),
    ("verify", {"cases": [{**LATTICE_CASE, "bound": "x"}]}),
    ("funceq", {"family": "lattice", "s": 0.6}),
    ("funceq", {"family": "vector", "A": I2, "c": [1.0, 0.0], "s": 0.6}),
    ("zeta", {"Q": I2, "s": [1, "a"]}),
    ("zeta", {"Q": I2, "s": {"re": "x"}}),
    ("theta", {"Q": I2, "t": "a"}),
    ("theta", {"Q": I2, "t": 1.0, "tol": "x"}),
    ("bench", {"repeat": "x"}),
    ("bench", {"repeat": 2.7}),
    ("residue", {"Q": I2, "numeric": "false"}),
    ("zeta", {"Q": I2, "s": 3, "tolerance": 1e-300}),
    ("scan", {"Q": I2, "s_start": 2.0, "s_end": 3.0, "steps": 10 ** 400}),
    ("bench", {"repeat": 10 ** 400}),
    ("scan", '{"Q": [[1, 0], [0, 1]], "s_start": 2, "s_end": 3, "steps": 1'
             + "0" * 5000 + "}"),
    # operand fields the named functional-equation family does not read
    ("funceq", {"family": "vector", "A": I2, "b": [1, 2], "c": [1, 1], "s": 0.7,
                "Q": [[5]]}),
    ("funceq", {"family": "lattice", "Q": I2, "B": I2, "A": [[9]], "s": 0.7}),
    ("funceq", {"family": "weighted", "Q": I2, "B": I2, "c": [1, 1], "s": 0.7}),
    ("verify", {"cases": [{**LATTICE_CASE, "B": I2}]}),
    ("theta", {"Q": I2, "t_list": []}),
    ("theta", {"Q": I2, "t_list": 0.5}),
    # a Monte Carlo solve needs two samples for its error bar
    ("solve", {**SOLVE_MC, "quadrature": {"method": "monte_carlo", "nodes": 1}}),
    # quadratures above the documented caps
    ("solve", {**SOLVE_MC, "quadrature": {"method": "monte_carlo", "nodes": 10 ** 12}}),
    ("solve", {"A": I3, "b": [1, 2, 3], "route": "integrals",
               "quadrature": {"method": "product_gauss", "nodes": 100000}}),
    ("solve", {"A": I5, "b": [1, 2, 3, 4, 5], "route": "integrals",
               "quadrature": {"method": "product_gauss", "nodes": 40}}),
])
def test_malformed_input_exits_2(tmp_path, capsys, command, payload):
    path = write(tmp_path, "in.json", payload)
    code, _, err = run_cli(capsys, command, "-i", path)
    assert code == 2
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("method, n, nodes", [
    ("monte_carlo", 8, 10 ** 6), ("product_gauss", 4, 48),
    ("product_gauss", 5, 32), ("circle_trapezoid", 2, 4096),
])
def test_quadrature_caps_accept_used_sizes(method, n, nodes):
    spec = _parse_quadrature({"method": method, "nodes": nodes}, n, None)
    assert (spec.method, spec.nodes) == (method, nodes)
