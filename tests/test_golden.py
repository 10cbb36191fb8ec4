"""Golden corpus: the canonical output of every CLI subcommand on fixed inputs.

The input files under ``tests/golden/inputs`` and the expected outputs under
``tests/golden/expected`` are frozen.  Each case runs ``motline`` through
``cli.main`` and compares its stdout byte for byte, plus the exit code, so a
refactor that moves any certified number, pivot choice or serialised digit
fails here.  To see what a change moves, and then to rewrite the expected
outputs on purpose (and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py --diff
    PYTHONPATH=src python tests/test_golden.py --write

``--diff`` exits 1 when any case moves and 0 when none does.

``--write`` writes an input only when it is missing; delete an input file to
redraw it.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from motline.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

SEEDS = (1, 2, 3)
CONTINUITY = ["--scales", "0.1", "0.01", "--seed", "3"]


def _cases():
    """(case name, argv with input names in braces, expected exit code)."""
    cases = []
    for s in SEEDS:
        pair = [f"{{mu{s}}}", f"{{nu{s}}}"]
        cases += [
            (f"check-{s}", ["check"] + pair, 0),
            (f"mot-solve-abs-{s}", ["mot", "solve"] + pair + ["--cost", "abs"], 0),
            (f"mot-solve-call-{s}", ["mot", "solve"] + pair + ["--cost", "call:0.5"], 0),
            (f"mot-penalized-{s}", ["mot", "penalized"] + pair + ["--L", "1"], 0),
            (f"mot-check-monotone-{s}",
             ["mot", "check-monotone", f"{{mart{s}}}", "--cost", "abs",
              "--samples", "12", "--subset-size", "4", "--seed", str(s)], 0),
            (f"mot-kappa-{s}", ["mot", "kappa", f"{{pi{s}}}", "--kappa", f"{{mart{s}}}"], 0),
            (f"nd-dist-{s}", ["nd-dist", f"{{pi{s}}}", f"{{mart{s}}}", "--p", "2"], 0),
            (f"project-{s}", ["project", f"{{pi{s}}}"], 0),
            (f"rearrange-{s}", ["rearrange", f"{{pi{s}}}"], 0),
        ]
    for fam in ("fam1", "fam2"):
        cases += [
            (f"project-{fam}", ["project", f"{{{fam}}}"], 0),
            (f"rearrange-{fam}", ["rearrange", f"{{{fam}}}"], 0),
            (f"nd-dist-{fam}", ["nd-dist", f"{{{fam}}}", f"{{{fam}}}"], 0),
            (f"lab-stability-{fam}", ["lab", "stability", f"{{{fam}}}"] + CONTINUITY, 0),
        ]
    cases += [
        ("check-reversed", ["check", "{nu1}", "{mu1}"], 3),
        ("mot-solve-square-2", ["mot", "solve", "{mu2}", "{nu2}", "--cost", "square"], 0),
        ("mot-solve-poly-3", ["mot", "solve", "{mu3}", "{nu3}", "--cost", "poly:1,1,-1;0,2,0.5"], 0),
        ("mot-solve-matrix", ["mot", "solve", "{mu1}", "{nu1}", "--cost-matrix", "{cost1}"], 0),
        ("mot-penalized-matrix",
         ["mot", "penalized", "{mu1}", "{nu1}", "--cost-matrix", "{cost1}", "--L", "30"], 0),
        ("mot-check-monotone-suboptimal",
         ["mot", "check-monotone", "{suboptimal}", "--cost", "abs",
          "--samples", "4", "--subset-size", "4", "--seed", "1"], 0),
        ("mot-kappa-call", ["mot", "kappa", "{pi2}", "--kappa", "{mart2}", "--chat", "call:0.5"], 0),
        ("nd-dist-p1", ["nd-dist", "{pi1}", "{pi2}"], 0),
        ("lab-example1-family1-n5", ["lab", "example1", "--family", "1", "--n", "5"], 0),
        ("lab-example1-family2-n2", ["lab", "example1", "--family", "2", "--n", "2"], 0),
        ("lab-continuity-json", ["lab", "continuity", "{mu1}", "{nu1}"] + CONTINUITY, 0),
        ("lab-continuity-csv",
         ["lab", "continuity", "{mu2}", "{nu2}", "--cost", "call:0.5", "--format", "csv"]
         + CONTINUITY, 0),
    ]
    return cases


CASES = _cases()


def _run(argv):
    names = {p.stem: str(p) for p in INPUTS.glob("*.json")}
    args = [a.format(**names) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name, argv, exit_code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, exit_code):
    code, out = _run(argv)
    assert code == exit_code
    assert out == (EXPECTED / f"{name}.out").read_bytes()


def test_golden_corpus_has_no_stray_files():
    assert sorted(p.stem for p in EXPECTED.glob("*.out")) == sorted(c[0] for c in CASES)


def _write_inputs():
    # the inputs were drawn once from the seeded generators and are frozen:
    # an input is written only when it is missing.  Redrawing them would move
    # outputs that a change does not reach: mart1..3 come from mot_solve under
    # the call cost, whose optimum is not unique, so the vertex they hold
    # follows the pivot path
    from motline import (
        CostSpec,
        example1_family1,
        example1_family2,
        mot_solve,
        random_convex_pair,
        random_coupling,
    )
    from motline.jsonio import canonical_dumps, coupling_to_dict

    def save(name, payload):
        path = INPUTS / f"{name}.json"
        if not path.exists():
            path.write_text(canonical_dumps(payload) + "\n", encoding="utf-8")

    INPUTS.mkdir(parents=True, exist_ok=True)
    for s in SEEDS:
        mu, nu = random_convex_pair(s, m=2 + s, k=4 + s)
        save(f"mu{s}", {"atoms": mu.atoms.tolist(), "weights": mu.weights.tolist()})
        save(f"nu{s}", {"atoms": nu.atoms.tolist(), "weights": nu.weights.tolist()})
        save(f"pi{s}", coupling_to_dict(random_coupling(s + 100, mu, nu)))
        save(f"mart{s}", coupling_to_dict(mot_solve(mu, nu, CostSpec.call(0.5))[1]))
        if s == 1:
            mu_x, nu_x = mu.atoms[:, None], nu.atoms[None, :]
            save("cost1", {"matrix": (abs(nu_x - mu_x) + 0.1 * mu_x * nu_x).tolist()})
    save("fam1", coupling_to_dict(example1_family1(5)[0]))
    save("fam2", coupling_to_dict(example1_family2(2)[0]))
    save("suboptimal", {"points": [[-1, -3, 0.25], [-1, 1, 0.25], [1, -1, 0.25], [1, 3, 0.25]]})


def test_write_keeps_existing_inputs(tmp_path, monkeypatch):
    frozen = INPUTS
    for path in frozen.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "mart1.json").write_text("kept\n")
    (tmp_path / "mu1.json").unlink()
    monkeypatch.setattr(sys.modules[__name__], "INPUTS", tmp_path)
    _write_inputs()
    assert (tmp_path / "mart1.json").read_text() == "kept\n"
    assert (tmp_path / "mu1.json").read_bytes() == (frozen / "mu1.json").read_bytes()


def _write_expected():
    EXPECTED.mkdir(parents=True, exist_ok=True)
    for name, argv, exit_code in CASES:
        code, out = _run(argv)
        if code != exit_code:
            raise SystemExit(f"{name}: exit {code}, expected {exit_code}")
        (EXPECTED / f"{name}.out").write_bytes(out)


def _numbers(value, path=""):
    """(path, number) for every number in one decoded output line.  The points
    of a coupling are keyed by their coordinates, so a moved support shows as
    masses that appear or vanish."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "points" and all(isinstance(p, list) and len(p) == 3 for p in item):
                for x1, x2, w in item:
                    yield f"{path}.points[{x1!r},{x2!r}]", float(w)
            else:
                yield from _numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _decode(out: bytes) -> dict:
    """Every number of an output by path; a line that is not JSON is read as
    comma-separated cells."""
    numbers = {}
    for n, line in enumerate(out.decode("utf-8").splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            value = []
            for cell in line.split(","):
                try:
                    value.append(float(cell))
                except ValueError:
                    value.append(cell)
        numbers.update(_numbers(value, f"line{n}"))
    return numbers


def _diff_expected() -> int:
    """Print, per expected file whose bytes would change, the change in
    support size and the largest absolute and relative change of each field
    (list indices and point coordinates folded).  Returns how many moved."""
    moved = 0
    for name, argv, exit_code in CASES:
        code, out = _run(argv)
        old = (EXPECTED / f"{name}.out").read_bytes()
        if code == exit_code and out == old:
            continue
        moved += 1
        before, after = _decode(old), _decode(out)
        support = [sum(".points[" in key for key in side) for side in (before, after)]
        print(f"{name}: exit {code} (expected {exit_code}), support {support[0]} -> {support[1]}")
        fields = {}
        for key in sorted(before.keys() | after.keys()):
            a, b = before.get(key, 0.0), after.get(key, 0.0)
            delta = abs(b - a)
            rel = delta / max(abs(a), abs(b)) if delta else 0.0
            field = re.sub(r"\[[^\]]*\]", "[]", key)
            worst = fields.get(field, (0.0, 0.0))
            fields[field] = (max(worst[0], delta), max(worst[1], rel))
        for field, (delta, rel) in fields.items():
            if delta:
                print(f"  {field}: max |d| {delta:.3g}, max rel {rel:.3g}")
    return moved


def _command(argv) -> int:
    """Exit code of ``python tests/test_golden.py``: ``--diff`` gives 1 when
    any case moves and 0 when none does."""
    if argv == ["--write"]:
        _write_inputs()
        _write_expected()
        return 0
    if argv == ["--diff"]:
        return int(_diff_expected() > 0)
    raise SystemExit("usage: python tests/test_golden.py --write | --diff")


def test_diff_exits_1_when_a_case_moves(tmp_path, monkeypatch, capsys):
    module, frozen = sys.modules[__name__], EXPECTED
    monkeypatch.setattr(module, "CASES", [c for c in CASES if c[0] in ("check-1", "nd-dist-p1")])
    monkeypatch.setattr(module, "EXPECTED", tmp_path)
    for name, _, _ in module.CASES:
        (tmp_path / f"{name}.out").write_bytes((frozen / f"{name}.out").read_bytes())
    assert _command(["--diff"]) == 0
    assert capsys.readouterr().out == ""
    moved = tmp_path / "nd-dist-p1.out"
    moved.write_bytes(moved.read_bytes().replace(b"}", b" }", 1))
    assert _command(["--diff"]) == 1
    assert capsys.readouterr().out.startswith("nd-dist-p1: exit 0 (expected 0)")


if __name__ == "__main__":
    sys.exit(_command(sys.argv[1:]))
