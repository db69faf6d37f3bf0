"""End-to-end command-line runs: exit codes, reports, goldens, spec files."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wedgemech
import wedgemech.cli as cli
from wedgemech.cli import main
from wedgemech.formats import SpecError, read_grid, write_grid
from wedgemech.geometry import FiberMetric
from wedgemech.plateau import GraphGrid
from wedgemech.scenarios import run_spec, scenario_names
from wedgemech.variational import CurveGrid, SurfaceGrid


def test_scenario_pass_exits_zero(capsys):
    assert main(["plateau-solve", "--scenario", "plane"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("wedgemech report\ncommand: plateau-solve\nscenario: plane\n")
    assert out.endswith("result: PASS\n")


def test_scenario_fail_exits_two(capsys):
    assert main(["nonholonomic-check", "--scenario", "example7-quadratic"]) == 2
    out = capsys.readouterr().out
    assert "dalembert-passed: no" in out
    assert out.endswith("result: FAIL\n")


def test_scenario_report_matches_stored_golden(capsys):
    assert main(["classical-el", "--scenario", "free-line"]) == 0
    out = capsys.readouterr().out
    with open(os.path.join(cli._GOLDEN_DIR, "free-line.txt"), encoding="ascii") as handle:
        assert handle.read() == out


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_matches_its_stored_golden(name, capsys):
    command = next(c for c in cli.COMMANDS if name in scenario_names(c))
    code = main([command, "--scenario", name])
    out = capsys.readouterr().out
    with open(os.path.join(cli._GOLDEN_DIR, f"{name}.txt"), encoding="ascii") as handle:
        assert out == handle.read()
    assert code == (0 if out.endswith("result: PASS\n") else 2)
    assert out.endswith(("result: PASS\n", "result: FAIL\n"))


def test_golden_files_are_exactly_the_scenarios():
    stems = {name[:-len(".txt")] for name in os.listdir(cli._GOLDEN_DIR) if name.endswith(".txt")}
    assert stems == set(scenario_names())


def test_golden_mismatch_exits_two(monkeypatch, tmp_path, capsys):
    with open(os.path.join(cli._GOLDEN_DIR, "free-line.txt"), encoding="ascii") as handle:
        stored = handle.read()
    (tmp_path / "free-line.txt").write_text(stored.replace("PASS", "PASS "))
    monkeypatch.setattr(cli, "_GOLDEN_DIR", str(tmp_path))
    assert main(["classical-el", "--scenario", "free-line"]) == 2
    assert "deviates from the stored golden" in capsys.readouterr().err


def test_missing_golden_needs_explicit_regen(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_GOLDEN_DIR", str(tmp_path))
    assert main(["classical-el", "--scenario", "free-line"]) == 1
    assert "--golden-regen" in capsys.readouterr().err


def test_golden_regen_then_compare(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_GOLDEN_DIR", str(tmp_path))
    assert main(["classical-el", "--scenario", "free-line", "--golden-regen"]) == 0
    assert "golden rewritten" in capsys.readouterr().err
    assert (tmp_path / "free-line.txt").exists()
    assert main(["classical-el", "--scenario", "free-line"]) == 0


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["plateau-solve", "--scenario", "nope"], "unknown scenario"),
        (["plateau-solve"], "exactly one of --scenario or --spec"),
        (["plateau-solve", "--scenario", "plane", "--spec", "x.spec"], "exactly one"),
        (["plateau-solve", "--spec", "x.spec", "--golden-regen"], "builtin scenarios only"),
        (["classical-el", "--spec", "no-such-file.spec"], "cannot read spec"),
        # the curve checks run as nonholonomic-check, like the surface checks
        (["classical-el", "--scenario", "constrained-line"], "unknown scenario 'constrained-line'"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, fragment):
    assert main(argv) == 1
    assert fragment in capsys.readouterr().err


# only plateau-solve has a surface to write to --out; the report goes to stdout alone
@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["plateau-solve", "--bogus"],
                                  ["classical-el", "--scenario", "free-line", "--out", "x"]])
def test_argparse_rejections_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


# an option is spelled out: a prefix of one is not that option
@pytest.mark.parametrize("argv, rest", [
    (["plateau-solve", "--scen", "plane"], "--scen plane"),
    (["nonholonomic-check", "--sp", "x.spec"], "--sp x.spec"),
    (["plateau-solve", "--scenario", "plane", "--golden"], "--golden"),
])
def test_option_prefixes_are_usage_errors(capsys, argv, rest):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: wedgemech ")
    assert f"error: unrecognized arguments: {rest}\n" in err


# a spec file is the one source of a run's numbers: no option overrides them
@pytest.mark.parametrize("option", [["--tol", "1e-3"], ["--max-iter", "3"]],
                         ids=["tol", "max-iter"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_no_option_overrides_a_spec_number(tmp_path, capsys, command, option):
    spec = _spec(tmp_path, "s.spec",
                 "kind plateau\ndomain 0 1 0 1\nshape 9 9\nboundary constant 0\n")
    for run in (["--spec", spec], ["--scenario", scenario_names(command)[0]]):
        with pytest.raises(SystemExit) as exc:
            main([command, *run, *option])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: wedgemech ")
        assert f"error: unrecognized arguments: {' '.join(option)}\n" in err


def test_out_writes_solved_grid(tmp_path, capsys):
    out = tmp_path / "plane.grid"
    assert main(["plateau-solve", "--scenario", "plane", "--out", str(out)]) == 0
    capsys.readouterr()
    grid = read_grid(out)
    assert isinstance(grid, SurfaceGrid)
    assert grid.points.shape == (33, 33, 3)
    x, y, z = grid.points[..., 0], grid.points[..., 1], grid.points[..., 2]
    assert np.abs(z - (2.0 * x - 0.5 * y + 1.0)).max() < 1e-9


def test_out_is_not_written_without_a_surface(tmp_path, capsys):
    # an infeasible constrained plateau solves no surface, so --out gets no file
    spec = tmp_path / "cp.spec"
    spec.write_text("kind constrained-plateau\ndomain 0 1 0 1\nshape 17 17\n"
                    "boundary affine 1 2 0\n")
    for run in (["--spec", str(spec)], ["--scenario", "constrained-quadratic"]):
        out = tmp_path / "solved.grid"
        assert main(["plateau-solve", *run, "--out", str(out)]) == 2
        assert "feasible: no" in capsys.readouterr().out
        assert not out.exists()


@pytest.mark.parametrize("source", ["spec", "scenario"])
def test_out_that_cannot_be_written_leaves_stdout_empty(tmp_path, capsys, source):
    # the solved grid is written before the report, so no PASS report precedes the i/o error
    spec = _spec(tmp_path, "p.spec", "kind plateau\ndomain 0 1 0 1\nshape 9 9\n"
                                     "boundary constant 1\n")
    run = ["--spec", spec] if source == "spec" else ["--scenario", "plane"]
    out = tmp_path / "missing" / "x.grid"
    assert main(["plateau-solve", *run, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wedgemech: i/o error: [Errno 2] ")
    assert not out.parent.exists()


def _spec(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spec_plateau_solves_and_writes(tmp_path, capsys):
    spec = _spec(
        tmp_path,
        "plane.spec",
        "kind plateau\ndomain 0 1 0 1\nshape 17 17\nboundary affine 1 2 0.5\ntol 1e-10\n",
    )
    out = tmp_path / "solved.grid"
    assert main(["plateau-solve", "--spec", spec, "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "spec: plane.spec" in report
    assert "converged: yes" in report
    grid = read_grid(out)
    x, y, z = grid.points[..., 0], grid.points[..., 1], grid.points[..., 2]
    assert np.abs(z - (x + 2.0 * y + 0.5)).max() < 1e-9


def test_spec_tol_decides_the_verdict(tmp_path, capsys):
    curve = CurveGrid.sample(lambda t: (np.cos(t),), 0.0, 2.0 * np.pi, 1001)
    write_grid(tmp_path / "cos.grid", curve)
    head = "kind classical-el\nsystem oscillator\ncurve cos.grid\n"
    assert main(["classical-el", "--spec", _spec(tmp_path, "osc.spec", head + "tol 1e-3\n")]) == 0
    capsys.readouterr()
    # the discretization residual is ~2e-5, so a tightened tol line must fail
    assert main(["classical-el", "--spec", _spec(tmp_path, "osc.spec", head + "tol 1e-12\n")]) == 2
    assert capsys.readouterr().out.endswith("result: FAIL\n")


# a spec of each kind that sets every tolerance key the kind reads, and the
# values its report shows: each tolerance line is the number the report states
_TOLERANCE_SPECS = {
    "plateau": ("plateau-solve", "kind plateau\ndomain -0.7 0.7 -0.7 0.7\nshape 9 9\n"
                "boundary scherk\ntol 0.25\nmax-iter 3\n", {"tol": 0.25, "max-iter": 3}),
    "constrained-plateau": ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\n"
                            "shape 9 9\nboundary diagonal-plane 2 -1\nfit-tol 1e-9\n"
                            "constraint-tol 0.25\nforce-tol 1e-4\n",
                            {"fit-tol": 1e-9, "constraint-tol": 0.25, "force-tol": 1e-4}),
    "nonholonomic-check": ("nonholonomic-check", "kind nonholonomic-check\ngrid plane.grid\n"
                           "constraint builtin example7\nconstraint-tol 0.25\nforce-tol 0.5\n",
                           {"constraint-tol": 0.25, "force-tol": 0.5}),
    "phase-check": ("phase-check", "kind phase-check\nx 0.1 -0.2 0.3\nw 1 0.25 -0.5\ntol 0.25\n",
                    {"tol": 0.25}),
    "classical-el": ("classical-el", "kind classical-el\ncurve line.grid\ntol 0.25\n",
                     {"tol": 0.25}),
    "nonholonomic-check-curve": ("nonholonomic-check", "kind nonholonomic-check\n"
                                 "grid line.grid\nconstraint builtin first-axis-drift\n"
                                 "constraint-tol 0.25\nforce-tol 0.5\n",
                                 {"constraint-tol": 0.25, "force-tol": 0.5}),
}


@pytest.mark.parametrize("case", list(_TOLERANCE_SPECS))
def test_spec_tolerance_lines_are_the_numbers_its_report_states(tmp_path, capsys, case):
    command, body, shown = _TOLERANCE_SPECS[case]
    xs = np.linspace(0.0, 1.0, 9)
    write_grid(tmp_path / "plane.grid", SurfaceGrid.from_graph(xs, xs, xs[:, None] + xs[None, :]))
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    assert main([command, "--spec", _spec(tmp_path, "t.spec", body)]) in (0, 2)
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[1:])
    assert {key: float(fields[key]) for key in shown} == shown


def test_spec_constrained_plateau_feasible(tmp_path, capsys):
    spec = _spec(
        tmp_path,
        "cp.spec",
        "kind constrained-plateau\ndomain 0 1 0 1\nshape 17 17\n"
        "boundary diagonal-plane 2 -1\n",
    )
    assert main(["plateau-solve", "--spec", spec]) == 0
    report = capsys.readouterr().out
    fields = dict(line.split(": ", 1) for line in report.splitlines()[1:])
    assert abs(float(fields["plane-a"]) - 2.0) < 1e-10
    assert abs(float(fields["plane-b"]) + 1.0) < 1e-10
    assert fields["feasible"] == "yes"


def test_spec_constrained_plateau_infeasible(tmp_path, capsys):
    spec = _spec(
        tmp_path,
        "cp.spec",
        "kind constrained-plateau\ndomain 0 1 0 1\nshape 17 17\nboundary affine 1 2 0\n",
    )
    assert main(["plateau-solve", "--spec", spec]) == 2
    report = capsys.readouterr().out
    assert "feasible: no" in report
    assert "no surface" in report


def test_spec_nonholonomic_surface(tmp_path, capsys):
    xs = np.linspace(0.0, 1.0, 17)
    grid = SurfaceGrid.from_graph(xs, xs, xs[:, None] + xs[None, :])
    write_grid(tmp_path / "plane.grid", grid)
    spec = _spec(
        tmp_path,
        "check.spec",
        "kind nonholonomic-check\ngrid plane.grid\nconstraint builtin example7\n"
        "constraint-tol 1e-6\n",
    )
    assert main(["nonholonomic-check", "--spec", spec]) == 0
    report = capsys.readouterr().out
    assert "constraint-passed: yes" in report
    assert "dalembert-passed: yes" in report


def test_spec_phase_check(tmp_path, capsys):
    spec = _spec(
        tmp_path,
        "phase.spec",
        "kind phase-check\nmetric euclidean 3\nlagrangian nambu-goto\n"
        "x 0.1 -0.2 0.3\nw 1.0 0.25 -0.5\ntol 1e-10\n",
    )
    assert main(["phase-check", "--spec", spec]) == 0
    report = capsys.readouterr().out
    assert "morse-sphere-defect:" in report
    assert report.endswith("result: PASS\n")


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("nonholonomic-check", "kind nonholonomic-check\ngrid plane.grid\n"
         "constraint builtin example7\nconstraint-tol -1\n", "spec error: constraint-tol:"),
        ("nonholonomic-check", "kind nonholonomic-check\ngrid plane.grid\n"
         "constraint builtin example7\nconstraint-tol 1e-6\nforce-tol nan\n",
         "spec error: force-tol:"),
        ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\nshape 9 9\n"
         "boundary diagonal-plane 1 0\nfit-tol 0\n", "spec error: fit-tol:"),
    ],
    ids=["constraint-tol-negative", "force-tol-nan", "fit-tol-zero"],
)
def test_spec_tolerance_must_be_positive(tmp_path, capsys, command, body, message):
    xs = np.linspace(0.0, 1.0, 9)
    write_grid(tmp_path / "plane.grid", SurfaceGrid.from_graph(xs, xs, xs[:, None] + xs[None, :]))
    spec = _spec(tmp_path, "t.spec", body)
    assert main([command, "--spec", spec]) == 1
    assert message in capsys.readouterr().err


def test_a_grouped_number_in_a_spec_exits_1_naming_its_field(tmp_path, capsys):
    # Python's float() reads "1_0e-6" as 1e-5; an input file does not
    spec = _spec(tmp_path, "p.spec", "kind plateau\ndomain -0.5 0.5 -0.5 0.5\nshape 9 9\n"
                                     "boundary affine 0.5 -0.25 1\ntol 1_0e-6\n")
    assert main(["plateau-solve", "--spec", spec]) == 1
    assert capsys.readouterr().err == ("wedgemech: spec error: tol: expected numbers, "
                                       "got ['1_0e-6']\n")


def test_spec_nonholonomic_curve(tmp_path, capsys):
    for fname, fn, code in [
        ("ok.grid", lambda t: (t, 0.7), 0),
        ("bad.grid", lambda t: (t, t), 2),
    ]:
        write_grid(tmp_path / fname, CurveGrid.sample(fn, 0.0, 1.0, 101))
        spec = _spec(
            tmp_path,
            "c.spec",
            f"kind nonholonomic-check\ngrid {fname}\nconstraint builtin first-axis-drift\n"
            "constraint-tol 1e-10\n",
        )
        assert main(["nonholonomic-check", "--spec", spec]) == code
        capsys.readouterr()


def test_spec_builtin_constraint_takes_the_curve_dimension(tmp_path, capsys):
    line3 = CurveGrid.sample(lambda t: (t, 0.7, -0.2), 0.0, 1.0, 101)
    write_grid(tmp_path / "line3.grid", line3)
    spec = _spec(tmp_path, "c3.spec", "kind nonholonomic-check\ngrid line3.grid\n"
                 "constraint builtin first-axis-drift\nconstraint-tol 1e-10\n")
    assert main(["nonholonomic-check", "--spec", spec]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")
    # a builtin of another dimension only, or of no name known, is an error of the spec's line
    write_grid(tmp_path / "line2.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 101))
    for name, message in [("example7", "example7 is a constraint in dimension 3, not 2"),
                          ("nope", "unknown builtin 'nope'")]:
        spec = _spec(tmp_path, "c2.spec", f"kind nonholonomic-check\ngrid line2.grid\n"
                     f"constraint builtin {name}\nconstraint-tol 1e-10\n")
        assert main(["nonholonomic-check", "--spec", spec]) == 1
        assert f"spec error: constraint: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, constraint, fragments",
    [
        ("plane.grid", "dimension 3\nsection 1 2 nan\n", ("section:", "finite")),
        ("plane.grid", "dimension 3\nsection 1 2 inf\n", ("section:", "finite")),
        ("plane.grid", "dimension 3\nsection 1 2 1\ngenerator 1 3 inf\n",
         ("generator:", "finite")),
        ("line.grid", "kind curve\ndimension -1\nsection 1 1\n", ("dimension:", "at least 1")),
        ("line.grid", "kind curve\ndimension 2\nsection 1 inf\n", ("section:", "finite")),
        # slot arrays past the intp range, and of 4e18 bytes: no address space holds them
        ("plane.grid", "dimension 10000000000\nsection 1 2 1\n",
         ("dimension:", "line 1:", "more than an array can index")),
        ("plane.grid", "# slots\ndimension 1000000000\nsection 1 2 1\n",
         ("dimension:", "line 2:", "do not fit in memory")),
        ("plane.grid", "kind curve\ndimension 3\nsection 1 1\n",
         ("constraint:", "a degree-1 constraint does not apply to a degree-2 grid")),
        ("plane.grid", "dimension 4\nsection 1 2 1\n",
         ("constraint:", "constraint dimension 4 does not match grid (3)")),
    ],
    ids=["surface-section-nan", "surface-section-inf", "surface-generator-inf",
         "curve-dimension-negative", "curve-section-inf", "dimension-past-intp",
         "dimension-past-memory", "curve-constraint-on-surface", "constraint-dimension-4"],
)
def test_spec_constraint_file_rejection_names_field(tmp_path, capsys, grid, constraint,
                                                    fragments):
    xs = np.linspace(0.0, 1.0, 9)
    write_grid(tmp_path / "plane.grid", SurfaceGrid.from_graph(xs, xs, xs[:, None] + xs[None, :]))
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    (tmp_path / "c.constraint").write_text(constraint)
    spec = _spec(tmp_path, "c.spec", "kind nonholonomic-check\nconstraint c.constraint\n"
                 f"grid {grid}\nconstraint-tol 1e-6\n")
    assert main(["nonholonomic-check", "--spec", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("wedgemech: spec error: ")
    assert all(fragment in err for fragment in fragments)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_spec_constraint_spanning_the_fiber(tmp_path, capsys):
    # generators e1 and e2 span the whole plane: no annihilator is left
    (tmp_path / "full.constraint").write_text(
        "kind curve\ndimension 2\nsection 1 1\ngenerator 1 1\ngenerator 2 1\n"
    )
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.5 * t), 0.0, 1.0, 41))
    spec = _spec(
        tmp_path,
        "full.spec",
        "kind nonholonomic-check\ngrid line.grid\nconstraint full.constraint\n"
        "constraint-tol 1e-10\n",
    )
    code = main(["nonholonomic-check", "--spec", spec])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err
    assert "constraint-max: 0\n" in captured.out
    assert "multiplier-range" not in captured.out


def test_spec_kind_command_mismatch(tmp_path, capsys):
    spec = _spec(tmp_path, "p.spec", "kind plateau\ndomain 0 1 0 1\nshape 5 5\nboundary constant 0\n")
    assert main(["classical-el", "--spec", spec]) == 1
    assert "not handled by classical-el" in capsys.readouterr().err


def test_spec_unknown_kind_lists_the_command_kinds(tmp_path, capsys):
    spec = _spec(tmp_path, "p.spec", "kind sudoku\n")
    assert main(["plateau-solve", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert "spec error: kind: 'sudoku' is not handled by plateau-solve" in err
    assert "plateau, constrained-plateau" in err


def test_spec_malformed_grid_names_field(tmp_path, capsys):
    (tmp_path / "bad.grid").write_text(
        "# kind surface\n# shape 6 6\n# step 0.2 0.2\ni j x1 x2 x3\n0 0 0 0 0\n"
    )
    spec = _spec(
        tmp_path,
        "check.spec",
        "kind nonholonomic-check\ngrid bad.grid\nconstraint builtin example7\n"
        "constraint-tol 1e-6\n",
    )
    assert main(["nonholonomic-check", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert "spec error" in err and "shape:" in err


def test_spec_unknown_key_names_field(tmp_path, capsys):
    spec = _spec(tmp_path, "p.spec", "kind plateau\ncolour red\n")
    assert main(["plateau-solve", "--spec", spec]) == 1
    assert "colour" in capsys.readouterr().err


# a key some other kind reads, or none does, in a spec of a kind that does not read it
@pytest.mark.parametrize(
    "command, body, key, number",
    [
        ("plateau-solve", "kind plateau\ndomain 0 1 0 1\nshape 9 9\nboundary constant 0\nr 1\n",
         "r", 5),
        ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\nshape 9 9\n"
         "boundary diagonal-plane 2 -1\nmax-iter 3\n", "max-iter", 5),
        ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\nshape 9 9\n"
         "boundary diagonal-plane 2 -1\ndamping 0.5\n", "damping", 5),
        ("plateau-solve", "kind plateau\ndomain 0 1 0 1\nshape 9 9\nboundary constant 0\n"
         "damping 0.5\n", "damping", 5),
        ("phase-check", "kind phase-check\nshape 9 9\nx 0.1 -0.2 0.3\nw 1 0.25 -0.5\n",
         "shape", 2),
        ("nonholonomic-check", "kind nonholonomic-check\ngrid line.grid\n"
         "constraint builtin first-axis-drift\ntol 1e-10\nconstraint-tol 1e-10\n", "tol", 4),
        ("classical-el", "kind classical-el\ncurve line.grid\n"
         "constraint builtin first-axis-drift\ntol 1e-10\n", "constraint", 3),
        ("classical-el", "kind classical-el\ncurve line.grid\nforce-tol 1e-4\n", "force-tol", 3),
        ("classical-el", "kind classical-el\n# a comment\ncurve line.grid\nlagrangian plateau\n",
         "lagrangian", 4),
    ],
    ids=["plateau-r", "constrained-max-iter", "constrained-damping", "plateau-damping",
         "phase-shape", "check-tol", "classical-constraint", "classical-force-tol",
         "classical-lagrangian"],
)
def test_spec_key_its_kind_does_not_read_is_refused(tmp_path, capsys, command, body, key,
                                                     number):
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 101))
    kind = body.split("\n")[0].split()[1]
    spec = _spec(tmp_path, "k.spec", body)
    assert main([command, "--spec", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"wedgemech: spec error: {key}: line {number}: a {kind} spec does "
                   "not read this key\n")


# a nonholonomic-check spec reads the Lagrangian keys of its grid's degree only:
# omega and mass for a curve, lagrangian and metric for a surface
@pytest.mark.parametrize("grid, line, degree", [
    ("plane.grid", "omega 3", 2),
    ("plane.grid", "mass 7", 2),
    ("line.grid", "lagrangian custom-table nowhere.tbl", 1),
    ("line.grid", "metric euclidean 9", 1),
], ids=["surface-omega", "surface-mass", "curve-lagrangian", "curve-metric"])
def test_spec_nonholonomic_refuses_the_other_degrees_keys(tmp_path, capsys, grid, line, degree):
    xs = np.linspace(0.0, 1.0, 9)
    write_grid(tmp_path / "plane.grid", SurfaceGrid.from_graph(xs, xs, xs[:, None] + xs[None, :]))
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 101))
    head = (f"kind nonholonomic-check\ngrid {grid}\nconstraint builtin "
            f"{('first-axis-drift', 'example7')[degree - 1]}\n")
    spec = _spec(tmp_path, "n.spec", head + f"{line}\nconstraint-tol 1e-6\n")
    key = line.split()[0]
    assert main(["nonholonomic-check", "--spec", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"wedgemech: spec error: {key}: line 4: a nonholonomic-check spec does "
                   f"not read this key on a degree-{degree} grid\n")
    # the same spec without that line passes
    spec = _spec(tmp_path, "n.spec", head + "constraint-tol 1e-6\n")
    assert main(["nonholonomic-check", "--spec", spec]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("phase-check", "kind phase-check\nmetric euclidean 3\nlagrangian quadratic\n",
         "lagrangian: unknown lagrangian 'quadratic'"),
        ("nonholonomic-check", "kind nonholonomic-check\ngrid plane.grid\n"
         "constraint builtin example7\nconstraint-tol 1e-6\nlagrangian quadratic\n"
         "metric euclidean 3\n", "lagrangian: unknown lagrangian 'quadratic'"),
        ("phase-check", "kind phase-check\nmetric euclidean 3\nlagrangian nambu-goto extra words\n",
         "lagrangian: nambu-goto takes no arguments, got 'extra words'"),
        ("nonholonomic-check", "kind nonholonomic-check\ngrid plane.grid\n"
         "constraint builtin example7\nconstraint-tol 1e-6\nlagrangian plateau 3\n",
         "lagrangian: plateau takes no arguments, got '3'"),
        ("phase-check", "kind phase-check\nlagrangian custom-table h.tbl more\n",
         "lagrangian: custom-table takes a path"),
        ("classical-el", "kind classical-el\ncurve cos.grid\nsystem oscillator extra\n",
         "system: expected one of free, oscillator; got 'oscillator extra'"),
        ("classical-el", "kind classical-el\ncurve cos.grid\nsystem free oscillator\n",
         "system: expected one of free, oscillator; got 'free oscillator'"),
        # cos t is the omega-1 oscillator's: a free system would pass on it
        ("classical-el", "kind classical-el\ncurve cos.grid\nsystem free\nomega 1\ntol 1e-3\n",
         "omega: line 4: system free needs omega 0, got 1.0"),
        ("classical-el", "kind classical-el\ncurve cos.grid\nsystem oscillator\nomega 0\n",
         "omega: line 4: system oscillator needs a nonzero omega, got 0.0"),
    ],
    ids=["phase-quadratic", "check-quadratic", "phase-nambu-goto-trailing",
         "check-plateau-trailing", "custom-table-trailing", "system-trailing",
         "system-two-names", "free-system-with-omega", "oscillator-without-omega"],
)
def test_spec_name_line_with_other_words_is_refused(tmp_path, capsys, command, body, message):
    # one name per Lagrangian and per system, nothing after a name that takes no argument,
    # and a system that agrees with its omega
    _plane_grid(tmp_path)
    write_grid(tmp_path / "cos.grid",
               CurveGrid.sample(lambda t: (np.cos(t),), 0.0, 2.0 * np.pi, 1001))
    body += "x 0.1 -0.2 0.3\nw 1 0.25 -0.5\n" if command == "phase-check" else ""
    assert main([command, "--spec", _spec(tmp_path, "n.spec", body)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"wedgemech: spec error: {message}\n")


def test_spec_curve_check_reproduces_the_constrained_line_scenarios(tmp_path, capsys):
    # the scenarios' curves as grid files; a spec writes shape: where they write their titles
    for name, fn in (("constrained-line", lambda t: (t, 0.7)),
                     ("constrained-line-violating", lambda t: (t, t))):
        write_grid(tmp_path / "c.grid", CurveGrid.sample(fn, 0.0, 1.0, 101))
        spec = _spec(tmp_path, "c.spec", "kind nonholonomic-check\ngrid c.grid\n"
                     "constraint builtin first-axis-drift\nconstraint-tol 1e-10\n")
        code = main(["nonholonomic-check", "--spec", spec])
        report = capsys.readouterr().out.splitlines()
        with open(os.path.join(cli._GOLDEN_DIR, f"{name}.txt"), encoding="ascii") as handle:
            golden = handle.read().splitlines()
        assert report[:4] == ["wedgemech report", "command: nonholonomic-check", "spec: c.spec",
                              "shape: 101"]
        assert report[4:] == golden[golden.index("constraint-tol: 1e-10"):]
        assert code == (0 if golden[-1] == "result: PASS" else 2)


@pytest.mark.parametrize(
    "body, fragments",
    [
        ("domain 0 1 0 1\nshape 3 3\nboundary constant 0\n", ("shape:",)),
        # Scherk heights are log(cos y / cos x): not finite past |x| = pi/2
        ("domain -1.6 1.6 -1.6 1.6\nshape 9 9\nboundary scherk\n", ("domain:", "scherk", "finite")),
        ("domain 0 0 0 1\nshape 9 9\nboundary constant 0\n", ("domain:", "degenerate")),
        ("domain 0 1 0 1\nshape 9 9\nboundary constant abc\n", ("boundary:", "abc")),
        ("domain 0 1 0 1\nshape 9 9\nboundary affine 1 x 0\n", ("boundary:", "'x'")),
        ("domain 0 1 0 1\nshape 9 9\nboundary diagonal-plane 1 1,5\n", ("boundary:", "1,5")),
        ("domain 0 1 0 1\nshape 9 9\nboundary affine 1 2\n", ("boundary:", "three")),
        ("domain 0 1 0 1\nshape 9 nan\nboundary constant 0\n", ("shape:", "finite")),
        ("domain 0 1 0 1\nshape 9 123456789012345678901234567890\nboundary constant 0\n",
         ("shape:", "more than an array can index")),
        ("domain 0 1 0 1\nshape 9 9\nboundary constant 0\ntol -1\n", ("tol:", "positive")),
        ("domain 0 1 0 1\nshape 9 9\nboundary constant 0\nmax-iter 0\n", ("max-iter:",)),
        ("domain 0 1 0 1\nshape 9 9\nboundary\n", ("boundary:", "missing value")),
        # steps whose squares leave the normal doubles: the stencils divide by them
        ("domain 0 1e200 0 1\nshape 7 7\nboundary affine 1 1 0\n", ("domain:", "normal floats")),
        ("domain 0 1e300 0 1e300\nshape 7 7\nboundary affine 1 1 0\n", ("domain:", "normal floats")),
        ("domain 0 1e-300 0 1e-300\nshape 7 7\nboundary affine 1 1 0\n",
         ("domain:", "normal floats")),
    ],
    ids=["shape", "scherk-past-pi-half", "degenerate-domain", "constant-non-numeric",
         "affine-non-numeric", "diagonal-plane-non-numeric", "affine-too-few", "shape-nan",
         "shape-past-int64", "tol-negative", "max-iter-zero", "boundary-empty",
         "step-squared-overflows", "both-steps-overflow", "steps-squared-underflow"],
)
def test_spec_plateau_grid_rejection_names_field(tmp_path, capsys, body, fragments):
    spec = _spec(tmp_path, "p.spec", "kind plateau\n" + body)
    assert main(["plateau-solve", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: ")
    assert all(fragment in err for fragment in fragments)
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize(
    "line, field, prefix",
    [
        ("tol abc", "tol", "tol: expected numbers"),
        ("max-iter 2.5", "max-iter", "max-iter: expected integers"),
        ("tol -1", "tol", "tol: tolerance must be positive"),
        # the solver options' own refusals, mapped to the spec field once
        ("max-iter 0", "max-iter", "max-iter: max_iter must be at least 1"),
    ],
)
def test_spec_plateau_option_error_names_its_field_once(tmp_path, line, field, prefix):
    spec = _spec(tmp_path, "p.spec",
                 f"kind plateau\ndomain 0 1 0 1\nshape 9 9\nboundary constant 0\n{line}\n")
    with pytest.raises(SpecError) as err:
        run_spec("plateau-solve", spec)
    assert err.value.field == field
    assert str(err.value).startswith(prefix)


def test_spec_plateau_grid_out_of_memory_names_shape(tmp_path, capsys, monkeypatch):
    # a count numpy can index but the machine cannot hold; simulated, nothing is allocated
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(GraphGrid, "from_boundary", exhausted)
    spec = _spec(tmp_path, "p.spec", "kind plateau\ndomain 0 1 0 1\nshape 9 9\nboundary constant 0\n")
    assert main(["plateau-solve", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: shape: 9 x 9 nodes do not fit in memory")


@pytest.mark.parametrize(
    "metric, x, w, fragments",
    [
        ("euclidean 1", "0.1", "1", ("metric:", "at least 2")),
        ("euclidean -1", "0.1", "1", ("metric:", "euclidean -1")),
        ("explicit 1 0 0 0 1 0 0 0 0", "0.1 -0.2 0.3", "1 0.25 -0.5", ("metric:", "degenerate")),
        ("explicit 1 0 0 0 1 0 0 0 inf", "0.1 -0.2 0.3", "1 0.25 -0.5", ("metric:", "finite")),
        ("euclidean 3", "0.1 nan 0.3", "1 0.25 -0.5", ("x:", "finite")),
        ("euclidean 3", "0.1 -0.2 0.3", "1 inf -0.5", ("w:", "finite")),
    ],
    ids=["dim-one", "dim-negative", "singular", "not-finite", "x-nan", "w-inf"],
)
def test_spec_phase_rejection_names_field(tmp_path, capsys, metric, x, w, fragments):
    spec = _spec(tmp_path, "phase.spec", f"kind phase-check\nmetric {metric}\n"
                 f"lagrangian nambu-goto\nx {x}\nw {w}\n")
    assert main(["phase-check", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: ")
    assert all(fragment in err for fragment in fragments)


def _plane_grid(tmp_path):
    xs = np.linspace(0.0, 1.0, 9)
    write_grid(tmp_path / "plane.grid", SurfaceGrid.from_graph(xs, xs, xs[:, None] + xs[None, :]))


_TABLE_READERS = {
    "phase-check": "x 0.1 -0.2 0.3\nw 1 0.25 -0.5\n",
    "nonholonomic-check": "grid plane.grid\nconstraint builtin example7\nconstraint-tol 1e-6\n",
}


@pytest.mark.parametrize(
    "table, fragments",
    [
        ("dimension 0\n", ("dimension:", "at least 2")),
        ("dimension 1\n", ("dimension:", "at least 2")),
        ("dimension -1\n", ("dimension:", "at least 2")),
        ("dimension 100000\n", ("dimension:", "more than an array can index")),
        ("dimension 3\nentry 1 2 1 2 inf\n", ("entry:", "line 2", "finite")),
        ("dimension 3\nentry 1 2 1 2 nan\n", ("entry:", "line 2", "finite")),
    ],
    ids=["dimension-0", "dimension-1", "dimension-negative", "dimension-huge", "entry-inf",
         "entry-nan"],
)
@pytest.mark.parametrize("command", sorted(_TABLE_READERS))
def test_spec_fiber_table_rejection_names_field(tmp_path, capsys, command, table, fragments):
    _plane_grid(tmp_path)
    (tmp_path / "h.tbl").write_text(table)
    spec = _spec(tmp_path, "t.spec",
                 f"kind {command}\nlagrangian custom-table h.tbl\n{_TABLE_READERS[command]}")
    assert main([command, "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: ")
    assert all(fragment in err for fragment in fragments)


_TABLE_4D = "dimension 4\n" + "".join(
    f"entry {a} {b} {a} {b} 1\n" for a in range(1, 5) for b in range(a + 1, 5)
)


@pytest.mark.parametrize(
    "command, lagrangian",
    [
        ("nonholonomic-check", "lagrangian nambu-goto\nmetric euclidean 4\n"),
        ("nonholonomic-check", "lagrangian custom-table h4.tbl\n"),
        ("phase-check", "lagrangian custom-table h4.tbl\n"),
    ],
    ids=["check-nambu-goto", "check-custom-table", "phase-custom-table"],
)
def test_spec_lagrangian_dimension_mismatch_names_lagrangian(tmp_path, capsys, command,
                                                             lagrangian):
    # the grid and the point x are 3-dimensional, every Lagrangian here 4-dimensional
    _plane_grid(tmp_path)
    (tmp_path / "h4.tbl").write_text(_TABLE_4D)
    spec = _spec(tmp_path, "t.spec", f"kind {command}\n{lagrangian}{_TABLE_READERS[command]}")
    assert main([command, "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: lagrangian: ")
    assert "has dimension 4, the " in err and " has 3" in err


_HUGE = "metric explicit 1e200 0 0 0 1e200 0 0 0 1e200\n"
_TINY = "metric explicit 1e-155 0 0 0 1e-155 0 0 0 1e-155\n"
_CHECK = _TABLE_READERS["nonholonomic-check"]


@pytest.mark.parametrize(
    "command, body, fragments",
    [
        # induced minors of 1e200 square past the largest double
        ("nonholonomic-check", f"lagrangian nambu-goto\n{_HUGE}{_CHECK}",
         ("metric: explicit 1e200", "coefficients must be finite")),
        ("phase-check", f"lagrangian nambu-goto\n{_HUGE}{_TABLE_READERS['phase-check']}",
         ("metric: explicit 1e200", "coefficients must be finite")),
        # the induced minors are subnormal; the dual ones, of 1e155, overflow in the Morse family
        ("phase-check", f"lagrangian nambu-goto\n{_TINY}{_TABLE_READERS['phase-check']}",
         ("metric: explicit 1e-155", "coefficients must be finite")),
        ("nonholonomic-check", f"lagrangian custom-table\n{_CHECK}",
         ("lagrangian:", "custom-table takes a path")),
        ("classical-el", "curve plane.grid\n", ("curve:", "needs a curve grid")),
    ],
    ids=["check-nambu-goto-overflow", "phase-nambu-goto-overflow",
         "phase-dual-overflow", "custom-table-without-path", "classical-el-surface-curve"],
)
def test_spec_lagrangian_input_rejection_names_field(tmp_path, capsys, command, body, fragments):
    _plane_grid(tmp_path)
    spec = _spec(tmp_path, "t.spec", f"kind {command}\n{body}")
    assert main([command, "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: ")
    assert all(fragment in err for fragment in fragments)
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command", sorted(_TABLE_READERS))
def test_spec_metric_out_of_memory_names_metric(tmp_path, capsys, monkeypatch, command):
    # a slot matrix of a dimension the machine cannot hold; simulated, nothing is allocated
    def exhausted(cls, g):
        raise MemoryError

    monkeypatch.setattr(FiberMetric, "from_point_metric", classmethod(exhausted))
    _plane_grid(tmp_path)
    spec = _spec(tmp_path, "t.spec", f"kind {command}\nlagrangian nambu-goto\n"
                 f"metric euclidean 3\n{_TABLE_READERS[command]}")
    assert main([command, "--spec", spec]) == 1
    assert capsys.readouterr().err == (
        "wedgemech: spec error: metric: euclidean 3: its fiber metric does not fit in memory\n")


def test_spec_metric_dimension_is_checked_before_its_fiber_metric(tmp_path, capsys, monkeypatch):
    # euclidean 300 has a 44850 x 44850 slot matrix (15 GiB); the grid's dimension refuses it first
    def unbuilt(cls, g):
        raise AssertionError("a fiber metric was built")

    monkeypatch.setattr(FiberMetric, "from_point_metric", classmethod(unbuilt))
    _plane_grid(tmp_path)
    spec = _spec(tmp_path, "t.spec", "kind nonholonomic-check\nlagrangian nambu-goto\n"
                 f"metric euclidean 300\n{_CHECK}")
    assert main(["nonholonomic-check", "--spec", spec]) == 1
    assert capsys.readouterr().err == (
        "wedgemech: spec error: lagrangian: nambu-goto has dimension 300, the grid has 3\n")


_TABLE_UNIT = "dimension 3\nentry 1 2 1 2 1\nentry 1 3 1 3 1\nentry 2 3 2 3 1\n"


@pytest.mark.parametrize(
    "command, table, reader",
    [
        ("phase-check", _TABLE_UNIT.replace("1 2 1 2 1\n", "1 2 1 2 1e308\n"),
         _TABLE_READERS["phase-check"]),
        ("nonholonomic-check", _TABLE_UNIT.replace("1 2 1 2 1\n", "1 2 1 2 1e308\n"),
         _TABLE_READERS["nonholonomic-check"]),
        ("phase-check", _TABLE_UNIT, "x 0.1 -0.2 0.3\nw 1e200 0.25 -0.5\n"),
        ("phase-check", "dimension 3\nentry 1 2 1 3 1\n", "x 0.1 -0.2 0.3\nw 1e308 1e-308 0\n"),
    ],
    ids=["phase-table-overflow", "check-table-overflow", "phase-w-overflow",
         "phase-momentum-overflow"],
)
def test_spec_overflowing_form_is_a_numeric_failure(tmp_path, capsys, command, table, reader):
    # finite inputs whose quadratic form (w|w) or its gradient overflows: the
    # form at 1e308 and (1e200)**2 are no numbers, so there is no value and no
    # momentum; the last form is 8, but its gradient has a component 4e308
    _plane_grid(tmp_path)
    (tmp_path / "h.tbl").write_text(table)
    spec = _spec(tmp_path, "t.spec", f"kind {command}\nlagrangian custom-table h.tbl\n{reader}")
    assert main([command, "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("wedgemech: numeric failure: ")
    assert " is not finite at some requested point\n" in captured.err
    assert "result: PASS" not in captured.out


def _graph_nodes(xs, z=lambda X, Y: 0 * X):
    """A surface grid whose nodes are (x, y, z(x, y)) on the x columns ``xs`` and y = 0..1."""
    X, Y = np.meshgrid(xs, np.linspace(0.0, 1.0, 9), indexing="ij")
    return SurfaceGrid(0.125, 0.125, np.stack([X, Y, z(X, Y)], -1))


_NON_UNIFORM_X = np.array([0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0])


@pytest.mark.parametrize(
    "grid, fragment",
    [(_graph_nodes(np.linspace(0.0, 1e200, 9)), "normal floats"),
     (_graph_nodes(np.linspace(1.0, 0.0, 9)), "degenerate"),
     (_graph_nodes(_NON_UNIFORM_X, lambda X, Y: X**2), "not a graph over a uniform rectangle"),
     (CurveGrid.sample(lambda t: (t, t, 0.0), 0.0, 1.0, 9), "need a surface grid"),
     (SurfaceGrid.sample(lambda t, s: (t, s, 0.0, 0.0), (0.0, 1.0, 9), (0.0, 1.0, 9)),
      "3 coordinates")],
    ids=["steps-squared-overflow", "descending", "non-uniform-x", "curve-grid",
         "four-coordinates"],
)
def test_spec_plateau_grid_file_rectangle_names_grid(tmp_path, capsys, grid, fragment):
    # node coordinates no graph rectangle has, whatever the table's steps say
    write_grid(tmp_path / "g.grid", grid)
    spec = _spec(tmp_path, "p.spec", "kind plateau\ngrid g.grid\n")
    assert main(["plateau-solve", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: grid: ") and fragment in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("k", [-50, -20, 0, 10, 30])
def test_spec_grid_file_uniformity_does_not_depend_on_units(tmp_path, capsys, k):
    # a 5 x 5 flat grid, once on a uniform x column and once with x = 0 1 2 3.5 4, all
    # scaled by 2**k: an exact scaling, so each keeps its verdict at every k
    scale = 2.0**k
    for xs, code in (([0.0, 1.0, 2.0, 3.0, 4.0], 0), ([0.0, 1.0, 2.0, 3.5, 4.0], 1)):
        X, Y = np.meshgrid(np.array(xs) * scale, np.arange(5.0) * scale, indexing="ij")
        write_grid(tmp_path / "g.grid", SurfaceGrid(scale, scale, np.stack([X, Y, 0 * X], -1)))
        spec = _spec(tmp_path, "p.spec", "kind plateau\ngrid g.grid\n")
        assert main(["plateau-solve", "--spec", spec]) == code
        out, err = capsys.readouterr()
        if code:
            assert err == ("wedgemech: spec error: grid: "
                           "nodes are not a graph over a uniform rectangle\n")
        else:
            assert "converged: yes\n" in out


@pytest.mark.parametrize(
    "domain",
    [(0.0, 1.0, 0.0, 1.0), (-0.7, 0.7, -0.7, 0.7), (0.1, 0.3, -2.0, 5.0), (1e-3, 2e-3, 0.0, 1e-6),
     (-1e5, 3e5, 7.0, 7.0 + 1e-9)],
)
def test_spec_grid_file_reads_back_as_the_same_graph(tmp_path, domain):
    # a written graph comes back with its own domain and heights, bit for bit
    from wedgemech.formats import read_problem_spec
    from wedgemech.scenarios import _graph_grid

    rng = np.random.default_rng(5)
    graph = GraphGrid(domain, rng.standard_normal((9, 13)))
    write_grid(tmp_path / "g.grid", graph.surface_grid())
    back = _graph_grid(read_problem_spec(_spec(tmp_path, "p.spec", "kind plateau\ngrid g.grid\n")))
    assert back.domain == graph.domain
    assert np.array_equal(back.z, graph.z)


@pytest.mark.parametrize(
    "boundary, what",
    [("affine 1e308 -0.25 1", "harmonic fill"), ("affine 1e300 1e300 0", "minimal-surface residual")],
    ids=["fill-overflows", "residual-overflows"],
)
def test_spec_plateau_start_overflow_is_a_numeric_failure(tmp_path, capsys, boundary, what):
    # finite ring heights whose harmonic fill, or whose first residual, is no number
    spec = _spec(tmp_path, "p.spec",
                 f"kind plateau\ndomain -0.5 0.5 -0.5 0.5\nshape 9 9\nboundary {boundary}\n")
    assert main(["plateau-solve", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"wedgemech: numeric failure: plateau start is not finite ({what}) "
                            "at node (1, 1)\n")
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, body, node",
    [
        ("classical-el", "curve c.grid\n", "(0,)"),
        ("nonholonomic-check", "grid c.grid\nconstraint builtin first-axis-drift\n"
                               "constraint-tol 1e-6\n", "(0,)"),
        ("nonholonomic-check", "grid s.grid\nconstraint builtin example7\n"
                               "constraint-tol 1e-6\n", "(0, 0)"),
    ],
    ids=["classical-curve", "check-curve", "check-surface"],
)
def test_spec_overflowing_differences_are_a_numeric_failure(tmp_path, capsys, command, body,
                                                            node):
    # a step of 1e-320 overflows every difference quotient of the nodes (k, k) or (i, j, i + j)
    (tmp_path / "c.grid").write_text("# kind curve\n# shape 5\n# step 1e-320\ni x1 x2\n"
                                     + "".join(f"{k} {k} {k}\n" for k in range(5)))
    (tmp_path / "s.grid").write_text(
        "# kind surface\n# shape 5 5\n# step 1e-320 1e-320\ni j x1 x2 x3\n"
        + "".join(f"{i} {j} {i} {j} {i + j}\n" for i in range(5) for j in range(5)))
    spec = _spec(tmp_path, "t.spec", f"kind {command}\n{body}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--spec", spec]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ("wedgemech: numeric failure: tangent or velocity element not finite "
                            f"at node {node}\n")
    assert captured.out == ""


# one spec of each kind, the curve check included, that sets every number its
# kind reads; each line whose last token is a number is a case below
_NUMBER_SPECS = {
    "plateau": ("plateau-solve", "kind plateau\ndomain -0.5 0.5 -0.5 0.5\nshape 9 9\n"
                "boundary affine 0.5 -0.25 1\ntol 1e-10\nmax-iter 25\n"),
    "constrained-plateau": ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\n"
                            "shape 9 9\nboundary diagonal-plane 2 -1\nfit-tol 1e-9\n"
                            "constraint-tol 1e-5\nforce-tol 1e-4\n"),
    "nonholonomic-check": ("nonholonomic-check", "kind nonholonomic-check\ngrid plane.grid\n"
                           "constraint builtin example7\nlagrangian nambu-goto\n"
                           "metric explicit 1 0 0 0 1 0 0 0 1\nconstraint-tol 1e-6\n"
                           "force-tol 1e-6\n"),
    "nonholonomic-check-curve": ("nonholonomic-check", "kind nonholonomic-check\n"
                                 "grid line.grid\nconstraint builtin first-axis-drift\n"
                                 "omega 1\nmass 1\nconstraint-tol 1e-6\nforce-tol 1e-6\n"),
    "phase-check": ("phase-check", "kind phase-check\nmetric explicit 1 0 0 0 1 0 0 0 1\n"
                    "lagrangian nambu-goto\nx 0.1 -0.2 0.3\nw 1 0.25 -0.5\ntol 1e-10\n"),
    "classical-el": ("classical-el", "kind classical-el\ncurve line.grid\nsystem oscillator\n"
                     "omega 1\nmass 1\ntol 1e-8\n"),
}


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


_NUMBER_LINES = [
    (name, k, line.split()[0])
    for name, (_, text) in _NUMBER_SPECS.items()
    for k, line in enumerate(text.splitlines())
    if _is_number(line.split()[-1])
]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name, k, field", _NUMBER_LINES,
                         ids=[f"{name}-{field}" for name, _, field in _NUMBER_LINES])
def test_spec_number_that_is_not_finite_names_its_field(tmp_path, capsys, name, k, field, token):
    # 1e400 parses to inf: past the double range is not finite either
    command, text = _NUMBER_SPECS[name]
    lines = text.splitlines()
    lines[k] = " ".join(lines[k].split()[:-1] + [token])
    _plane_grid(tmp_path)
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    assert main([command, "--spec", _spec(tmp_path, "n.spec", "\n".join(lines) + "\n")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"wedgemech: spec error: {field}: expected finite numbers")
    assert captured.out == ""


def test_number_specs_run_and_cover_every_number_field(tmp_path, capsys):
    # unmutated, each spec runs, so each refusal above is the mutated number's
    _plane_grid(tmp_path)
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    for command, text in _NUMBER_SPECS.values():
        assert main([command, "--spec", _spec(tmp_path, "n.spec", text)]) in (0, 2)
        assert "error" not in capsys.readouterr().err
    assert {field for _, _, field in _NUMBER_LINES} == {
        "domain", "shape", "boundary", "tol", "max-iter", "fit-tol",
        "constraint-tol", "force-tol", "metric", "omega", "mass", "x", "w"}


@pytest.mark.parametrize(
    "command, body",
    [
        ("classical-el", "system oscillator\nomega 1e155\n"),
        ("classical-el", "system oscillator\nomega 1e300\nmass 1e-300\n"),
        ("nonholonomic-check", "constraint builtin first-axis-drift\nconstraint-tol 1e-6\n"
         "omega 1e200\n"),
        ("classical-el", "system oscillator\nomega 1e10\nmass 1e308\n"),
    ],
    ids=["omega-1e155", "omega-1e300-mass-1e-300", "check-omega-1e200", "mass-1e308-omega-1e10"],
)
def test_spec_curve_omega_overflow_is_a_numeric_failure(tmp_path, capsys, command, body):
    write_grid(tmp_path / "line.grid", CurveGrid.sample(lambda t: (t, 0.7), 0.0, 1.0, 11))
    field = "curve" if command == "classical-el" else "grid"
    spec = _spec(tmp_path, "c.spec", f"kind {command}\n{field} line.grid\n{body}")
    assert main([command, "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: numeric failure: mass * omega**2 is not finite")


@pytest.mark.parametrize(
    "lines, code, stop",
    [("", 0, None), ("tol 1e-15\n", 2, "no-descent"), ("max-iter 1\n", 2, "max-iter")],
    ids=["converged", "below-floor", "budget"],
)
def test_spec_solve_says_why_it_stopped(tmp_path, capsys, lines, code, stop):
    spec = _spec(tmp_path, "s.spec",
                 "kind plateau\ndomain -0.7 0.7 -0.7 0.7\nshape 17 17\nboundary scherk\n" + lines)
    assert main(["plateau-solve", "--spec", spec]) == code
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[1:])
    if stop is None:  # converged reports carry neither line
        assert fields["converged"] == "yes"
        assert "stop" not in fields and "residual-floor" not in fields
        return
    assert fields["converged"] == "no"
    assert fields["stop"] == stop
    assert float(fields["residual-floor"]) > 0.0
    if stop == "no-descent":  # 1e-15 is out of float64's reach at this resolution
        assert float(fields["residual-floor"]) > float(fields["tol"])


# spec files that restate five scenarios; a spec cannot write a scenario's
# title lines, nor the exact-solution error or the area density it prints
_SCENARIO_SPECS = {
    "plane": ("plateau-solve",
              "kind plateau\ndomain 0 1 0 1\nshape 33 33\nboundary affine 2 -0.5 1\n"),
    "scherk-65": ("plateau-solve",
                  "kind plateau\ndomain -0.7 0.7 -0.7 0.7\nshape 65 65\nboundary scherk\n"),
    "constrained-plane": ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\n"
                          "shape 33 33\nboundary diagonal-plane 2 -1\n"),
    "constrained-quadratic": ("plateau-solve", "kind constrained-plateau\ndomain 0 1 0 1\n"
                              "shape 33 33\nboundary diagonal-quadratic\n"),
    "nambu-goto-euclid": ("phase-check", "kind phase-check\nmetric euclidean 3\n"
                          "lagrangian nambu-goto\nx 0.1 -0.2 0.3\nw 1 0.25 -0.5\n"),
}
_SCENARIO_ONLY = ("surface:", "boundary:", "metric:", "lagrangian:", "interior-max-error:",
                  "area-density:")


@pytest.mark.parametrize("name", sorted(_SCENARIO_SPECS))
def test_spec_reproduces_scenario_body(tmp_path, capsys, name):
    command, text = _SCENARIO_SPECS[name]
    code = main([command, "--spec", _spec(tmp_path, f"{name}.spec", text)])
    report = capsys.readouterr().out
    with open(os.path.join(cli._GOLDEN_DIR, f"{name}.txt"), encoding="ascii") as handle:
        golden = handle.read()
    assert report.splitlines()[:3] == ["wedgemech report", f"command: {command}",
                                       f"spec: {name}.spec"]
    body = [line for line in golden.splitlines()[3:] if not line.startswith(_SCENARIO_ONLY)]
    assert report.splitlines()[3:] == body
    assert code == (0 if golden.endswith("result: PASS\n") else 2)


def test_spec_plateau_grid_file_below_minimum_size(tmp_path, capsys):
    lines = ["# kind surface", "# shape 3 3", "# step 0.5 0.5", "i j x1 x2 x3"]
    lines += [f"{i} {j} {i / 2} {j / 2} 0" for i in range(3) for j in range(3)]
    (tmp_path / "small.grid").write_text("\n".join(lines) + "\n")
    spec = _spec(tmp_path, "p.spec", "kind plateau\ngrid small.grid\n")
    assert main(["plateau-solve", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wedgemech: spec error: shape: need at least 5 nodes per axis")
    assert "Traceback" not in err


def test_scenario_listing_by_command():
    from wedgemech.scenarios import scenario_names

    assert set(scenario_names("plateau-solve")) >= {"plane", "scherk-65"}
    assert "example7-scherk" in scenario_names("nonholonomic-check")
    assert "oscillator-cos" in scenario_names("classical-el")
    assert set(scenario_names()) == {
        name for cmd in cli.COMMANDS for name in scenario_names(cmd)
    }


def test_commands_and_their_help_come_from_the_command_table():
    from wedgemech.scenarios import _COMMANDS, _KINDS

    assert cli.COMMANDS == tuple(_COMMANDS)
    assert {row[0] for row in _KINDS.values()} == set(cli.COMMANDS)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert tuple(sub.choices) == cli.COMMANDS
    helps = {action.dest: action.help for action in sub._choices_actions}
    assert helps == _COMMANDS


def test_cli_import_leaves_scipy_fft_unloaded():
    # `import scipy.fft` after `import numpy` takes 0.17-0.25 s (7 fresh
    # interpreters, scipy 1.17.1 and numpy 2.4.6 on a 2-core host), more than a
    # 65^2 solve; `python -X importtime` puts about half of it in
    # scipy._lib.array_api_compat.numpy, whose `from numpy import *` loads
    # numpy.f2py, numpy.ma and numpy.testing.  The command line does not load
    # it, and a solve imports it only once its process has spent about that
    # much (7 M element-pairs) on the slower numpy.fft sine transforms
    src = os.path.dirname(os.path.dirname(wedgemech.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, wedgemech.cli; print('scipy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_scipy_loads_only_for_solves():
    # every command but the Plateau solve runs on numpy alone; scipy's import
    # would otherwise be most of a check's wall time
    src = os.path.dirname(os.path.dirname(wedgemech.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import contextlib, io, sys\n"
        "import wedgemech.cli as cli\n"
        "def scipy_loaded():\n"
        "    return any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules)\n"
        "print(scipy_loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    check = cli.main(['nonholonomic-check', '--scenario', 'example7-plane'])\n"
        "print(check, scipy_loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    solve = cli.main(['plateau-solve', '--scenario', 'plane'])\n"
        "print(solve, scipy_loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    newton = cli.main(['plateau-solve', '--scenario', 'scherk-65'])\n"
        "print(newton, 'scipy.fft' in sys.modules, sorted({name for name in sys.modules\n"
        "      if name.split('.')[:2] in (['scipy', 'sparse'], ['scipy', 'linalg'])}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    # a solve that stays on GMRES needs the DST only, and under the transform
    # budget it runs on numpy.fft: no scipy.fft, no sparse matrices, no LAPACK wrappers
    assert out.split("\n")[:4] == ["False", "0 False", "0 False", "0 False []"]


def _fresh_stdout(probe):
    """Standard output of ``python -c probe`` in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wedgemech.__file__)))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


@pytest.mark.parametrize("name", scenario_names())
def test_no_builtin_scenario_loads_scipy(name):
    command = next(c for c in cli.COMMANDS if name in scenario_names(c))
    probe = (
        "import contextlib, io, sys\n"
        "import wedgemech.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main([{command!r}, '--scenario', {name!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_stdout(probe) == "[]\n"


def test_a_process_past_the_transform_budget_imports_scipy_fft_once():
    # 257^2 Scherk solves until scipy.fft is loaded: the first solve to start with
    # the budget spent imports it, before its own arrays, and runs on it throughout
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from wedgemech import plateau\n"
        "searched = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        searched.append(name)\n"
        "sys.meta_path.insert(0, Watch())\n"
        "grid = plateau.GraphGrid.from_boundary((-0.6, 0.6, -0.6, 0.6), 257, 257,\n"
        "                                       lambda X, Y: np.log(np.cos(Y) / np.cos(X)))\n"
        "solves, tallies = [], []\n"
        "while 'scipy.fft' not in sys.modules:\n"
        "    solves.append(plateau.solve_plateau(grid))\n"
        "    tallies.append(plateau._numpy_dst_work)\n"
        "print(plateau._SCIPY_FFT_WORTH, searched.count('scipy.fft'), *tallies)\n"
        "print(len({(r.grid.z.tobytes(), r.trace.tobytes()) for r in solves}))\n"
        "print(sorted({name for name in sys.modules\n"
        "              if name.split('.')[:2] in (['scipy', 'sparse'], ['scipy', 'linalg'])}))\n"
    )
    counts, distinct, heavy = _fresh_stdout(probe).splitlines()
    budget, imports, *tallies = (int(v) for v in counts.split())
    assert imports == 1
    per_solve = tallies[0]
    # every solve that started under the budget ran on numpy.fft; the last one counted nothing
    assert tallies[:-1] == [per_solve * (k + 1) for k in range(len(tallies) - 1)]
    assert tallies[-3] < budget <= tallies[-2] == tallies[-1]
    assert distinct == "1"  # the solves on numpy.fft and the one on scipy.fft agree bitwise
    assert heavy == "[]"


def test_a_process_with_scipy_fft_imported_never_takes_the_numpy_route():
    probe = (
        "import contextlib, io\n"
        "import scipy.fft\n"
        "import wedgemech.cli as cli\n"
        "from wedgemech import plateau\n"
        "def refuse(x, inverse):\n"
        "    raise AssertionError('numpy.fft route taken')\n"
        "plateau._numpy_dst1 = refuse\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['plateau-solve', '--scenario', 'scherk-65'])\n"
        "print(code, plateau._numpy_dst_work)\n"
    )
    assert _fresh_stdout(probe) == "0 0\n"
