import json

import pytest

from motline import (
    CostSpec,
    make_measure,
    mot_solve,
    nested_w_p,
    point_mass,
    rearrange,
)
from motline.cli import main, parse_cost
from motline.jsonio import canonical_dumps, load_coupling, load_measure, save
from motline.errors import ParseError


@pytest.fixture
def files(tmp_path):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    pi = tmp_path / "pi.json"
    save(str(mu), {"atoms": [0.0], "weights": [1.0]})
    save(str(nu), {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]})
    save(str(pi), {"points": [[0.0, -1.0, 0.5], [0.0, 1.0, 0.5]]})
    return {"mu": str(mu), "nu": str(nu), "pi": str(pi), "dir": tmp_path}


def test_check_exit_codes(files, capsys):
    assert main(["check", files["mu"], files["nu"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["convex_order"] is True
    assert main(["check", files["nu"], files["mu"]]) == 3


def test_check_parse_error(files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": [0, 1]}')
    assert main(["check", str(bad), files["nu"]]) == 2


def test_unknown_flag_is_usage_error(files, capsys):
    assert main(["check", files["mu"], files["nu"], "--frobnicate"]) == 2
    capsys.readouterr()


def test_mot_solve_matches_library(files, capsys):
    assert main(["mot", "solve", files["mu"], files["nu"], "--cost", "abs"]) == 0
    out = capsys.readouterr().out.strip()
    mu = load_measure(files["mu"])
    nu = load_measure(files["nu"])
    value, plan = mot_solve(mu, nu, CostSpec.absolute())
    expected = canonical_dumps({"value": value, "plan": {
        "points": [[float(a), float(b), float(w)] for a, b, w in zip(plan.x1, plan.x2, plan.w)]}})
    assert out == expected  # byte-for-byte


def test_mot_solve_square(files, capsys):
    assert main(["mot", "solve", files["mu"], files["nu"], "--cost", "square"]) == 0
    payload = json.loads(capsys.readouterr().out)
    nu = load_measure(files["nu"])
    assert payload["value"] == pytest.approx(nu.moment(2) - 0.0, abs=1e-9)


def test_mot_solve_infeasible_exit(files):
    assert main(["mot", "solve", files["nu"], files["mu"]]) == 3


def test_nd_dist_self_zero(files, capsys):
    assert main(["nd-dist", files["pi"], files["pi"]]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0


def test_nd_dist_matches_library(tmp_path, capsys, family1):
    pi, _ = family1(4)
    diag = tmp_path / "diag.json"
    full = tmp_path / "full.json"
    mu = pi.first_marginal
    save(str(diag), {"points": [[float(a), float(a), float(w)]
                                for a, w in zip(mu.atoms, mu.weights)]})
    save(str(full), {"points": [[float(a), float(b), float(w)]
                                for a, b, w in zip(pi.x1, pi.x2, pi.w)]})
    assert main(["nd-dist", str(full), str(diag)]) == 0
    payload = json.loads(capsys.readouterr().out)
    value, _ = nested_w_p(load_coupling(str(full)), load_coupling(str(diag)), 1.0)
    assert payload["value"] == value


def test_project_output(files, capsys, tmp_path, family1):
    pi, expected = family1(5)
    path = tmp_path / "f5.json"
    save(str(path), {"points": [[float(a), float(b), float(w)]
                                for a, b, w in zip(pi.x1, pi.x2, pi.w)]})
    assert main(["project", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(expected["projection"], abs=1e-7)
    assert payload["lower_bound"] == pytest.approx(expected["epsilon"], abs=1e-12)


def test_rearrange_stream(tmp_path, capsys, family1):
    pi, expected = family1(5)
    path = tmp_path / "f5.json"
    save(str(path), {"points": [[float(a), float(b), float(w)]
                                for a, b, w in zip(pi.x1, pi.x2, pi.w)]})
    assert main(["rearrange", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = rearrange(pi)
    assert len(lines) == result.steps + 1
    step = json.loads(lines[0])
    assert step["type"] == "cascade"
    assert step["m"] == 3
    summary = json.loads(lines[-1])
    assert summary["cost_bound"] == result.cost_bound  # bit-identical rerun
    assert summary["epsilon_initial"] == pytest.approx(expected["epsilon"], abs=1e-12)


def test_rearrange_large_tol_mart_keeps_sandwich(tmp_path, capsys):
    # per-atom deviations +-0.01 stop the loop at once under --tol-mart 0.05
    path = tmp_path / "residual.json"
    save(str(path), {"points": [[0, -1, 0.25], [0, 1.02, 0.25], [1, 0, 0.25], [1, 1.98, 0.25]]})
    assert main(["rearrange", str(path), "--tol-mart", "0.05"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["steps"] == 0
    assert summary["cost_bound"] >= summary["epsilon_initial"]


def test_lab_example1(capsys):
    assert main(["lab", "example1", "--family", "1", "--n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["projection"]["computed"] == pytest.approx(0.8, abs=1e-7)
    assert payload["projection"]["expected"] == pytest.approx(0.8)
    assert main(["lab", "example1", "--family", "2", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"]["expected"] == pytest.approx(0.4)


def test_lab_continuity_csv(tmp_path, capsys):
    mu_path = tmp_path / "m.json"
    nu_path = tmp_path / "n.json"
    save(str(mu_path), {"atoms": [0.0], "weights": [1.0]})
    save(str(nu_path), {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]})
    out = tmp_path / "sweep.csv"
    code = main(["lab", "continuity", str(mu_path), str(nu_path),
                 "--scales", "0.1", "0.01", "--seed", "3",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("h,")
    assert len(rows) == 3


def test_lab_stability_json(files, capsys):
    assert main(["lab", "stability", files["pi"], "--scales", "0.05", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["rows"][0]
    assert row["epsilon"] <= row["projection"] + 1e-9


def test_mot_kappa(files, capsys):
    assert main(["mot", "kappa", files["pi"], "--kappa", files["pi"], "--chat", "match"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] <= 1e-9


def test_mot_check_monotone(files, capsys):
    assert main(["mot", "check-monotone", files["pi"], "--cost", "abs",
                 "--samples", "20", "--subset-size", "2", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_violations"] == 0


def test_parse_cost_forms():
    assert parse_cost("abs").kind == "abs"
    assert parse_cost("square").kind == "square"
    call = parse_cost("call:1.5")
    assert call.kind == "call" and call.strike == 1.5
    poly = parse_cost("poly:1,0,2.5;0,2,1")
    assert poly.kind == "poly" and poly.terms == ((1, 0, 2.5), (0, 2, 1.0))
    with pytest.raises(ParseError):
        parse_cost("fancy")
    with pytest.raises(ParseError):
        parse_cost("call:x")


def test_canonical_dumps_fixed_format():
    assert canonical_dumps({"b": 0.1, "a": 2}) == '{"a":2,"b":0.10000000000000001}'
    assert canonical_dumps([True, None, "x"]) == '[true,null,"x"]'


def test_loaders_reject_bad_weight_totals(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"atoms": [0.0, 1.0], "weights": [0.5, 0.6]}')
    with pytest.raises(ParseError):
        load_measure(str(path))
    path.write_text('{"atoms": [0.0, 1.0], "weights": [0.5000001, 0.5]}')
    mu = load_measure(str(path))  # inside the 1e-6 gate: renormalized
    assert abs(mu.weights.sum() - 1.0) <= 1e-12


def test_loaders_reject_nan(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"atoms": [0.0, NaN], "weights": [0.5, 0.5]}')
    with pytest.raises(ParseError):
        load_measure(str(path))


def test_debug_lp_flag_is_gone(files, tmp_path):
    dump = tmp_path / "tableaus.txt"
    assert main(["--debug-lp", str(dump), "project", files["pi"]]) == 2
    assert not dump.exists()


@pytest.mark.parametrize("command", [["project"], ["rearrange"],
                                     ["lab", "stability", "--format", "csv"]])
def test_unwritable_out_is_a_usage_error(files, tmp_path, capsys, command):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(command + [files["pi"], "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_cost_matrix_is_a_usage_error(files, tmp_path):
    for text in ('{"values": [[0.0, 1.0]]}', '{"matrix": [[0.0, NaN]]}', "[[0.0, 1.0]]",
                 "not json"):
        path = tmp_path / "cost.json"
        path.write_text(text)
        assert main(["mot", "solve", files["mu"], files["nu"], "--cost-matrix", str(path)]) == 2
    assert main(["mot", "solve", files["mu"], files["nu"],
                 "--cost-matrix", str(tmp_path / "missing.json")]) == 2
