"""End-to-end command-line runs: exit codes, reports, goldens, spec files."""

import os

import numpy as np
import pytest

import wedgemech.cli as cli
from wedgemech.cli import main
from wedgemech.formats import read_grid, write_grid
from wedgemech.scenarios import scenario_names
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
        (["plateau-solve", "--scenario", "plane", "--tol", "1e-3"], "scenarios are fixed"),
        (["plateau-solve", "--spec", "x.spec", "--golden-regen"], "builtin scenarios only"),
        (["classical-el", "--spec", "no-such-file.spec"], "cannot read spec"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, fragment):
    assert main(argv) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["plateau-solve", "--bogus"]])
def test_argparse_rejections_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_out_writes_solved_grid(tmp_path, capsys):
    out = tmp_path / "plane.grid"
    assert main(["plateau-solve", "--scenario", "plane", "--out", str(out)]) == 0
    capsys.readouterr()
    grid = read_grid(out)
    assert isinstance(grid, SurfaceGrid)
    assert grid.points.shape == (33, 33, 3)
    x, y, z = grid.points[..., 0], grid.points[..., 1], grid.points[..., 2]
    assert np.abs(z - (2.0 * x - 0.5 * y + 1.0)).max() < 1e-9


def test_out_copies_report_for_checks(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["classical-el", "--scenario", "free-line", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


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


def test_spec_tol_and_max_iter_override(tmp_path, capsys):
    curve = CurveGrid.sample(lambda t: (np.cos(t),), 0.0, 2.0 * np.pi, 1001)
    write_grid(tmp_path / "cos.grid", curve)
    spec = _spec(
        tmp_path,
        "osc.spec",
        "kind classical-el\nsystem oscillator\ncurve cos.grid\ntol 1e-3\n",
    )
    assert main(["classical-el", "--spec", spec]) == 0
    capsys.readouterr()
    # the discretization residual is ~2e-5, so a tightened override must fail
    assert main(["classical-el", "--spec", spec, "--tol", "1e-12"]) == 2
    assert capsys.readouterr().out.endswith("result: FAIL\n")


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


def test_spec_classical_with_constraint(tmp_path, capsys):
    for fname, fn, code in [
        ("ok.grid", lambda t: (t, 0.7), 0),
        ("bad.grid", lambda t: (t, t), 2),
    ]:
        write_grid(tmp_path / fname, CurveGrid.sample(fn, 0.0, 1.0, 101))
        spec = _spec(
            tmp_path,
            "c.spec",
            f"kind classical-el\ncurve {fname}\nconstraint builtin first-axis-drift\n"
            "tol 1e-10\n",
        )
        assert main(["classical-el", "--spec", spec]) == code
        capsys.readouterr()


def test_spec_builtin_constraint_takes_the_curve_dimension(tmp_path, capsys):
    line3 = CurveGrid.sample(lambda t: (t, 0.7, -0.2), 0.0, 1.0, 101)
    write_grid(tmp_path / "line3.grid", line3)
    for command, kind, field in [
        ("classical-el", "classical-el", "curve"),
        ("nonholonomic-check", "nonholonomic-check", "grid"),
    ]:
        spec = _spec(
            tmp_path,
            "c3.spec",
            f"kind {kind}\n{field} line3.grid\nconstraint builtin first-axis-drift\n"
            "tol 1e-10\nconstraint-tol 1e-10\n",
        )
        assert main([command, "--spec", spec]) == 0
        assert capsys.readouterr().out.endswith("result: PASS\n")
    # a constraint file of another dimension is a spec error, not a traceback
    (tmp_path / "drift2.constraint").write_text(
        "kind curve\ndimension 2\nbuiltin first-axis-drift\n"
    )
    spec = _spec(
        tmp_path, "c2.spec", "kind classical-el\ncurve line3.grid\nconstraint drift2.constraint\n"
    )
    assert main(["classical-el", "--spec", spec]) == 1
    assert "spec error" in capsys.readouterr().err


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


def test_scenario_listing_by_command():
    from wedgemech.scenarios import scenario_names

    assert set(scenario_names("plateau-solve")) >= {"plane", "scherk-65"}
    assert "example7-scherk" in scenario_names("nonholonomic-check")
    assert "oscillator-cos" in scenario_names("classical-el")
    assert set(scenario_names()) == {
        name for cmd in cli.COMMANDS for name in scenario_names(cmd)
    }
