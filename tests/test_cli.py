import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import torusns.cli
from torusns import linsolve
from torusns.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, CSV_COLUMNS,
                         RunSpec, StudySpec, emit_config, main, parse_config,
                         rerender_report, run_study)
from torusns.mesh import build_torus_mesh
from torusns.steppers import DiscreteTrajectory
from torusns.trig import preset_field


def write_cfg(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE_CFG = """\
[run]
scheme = CN
case = 1
nu = 0.2
T = 0.5
steps = 4
n_cells = 2
datum = sine-shear
with_local_energy = true
"""


def test_run_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("summary.csv", "report.txt", "report.json",
                 "trajectory.npz", "runmeta.ini"):
        assert (out / name).exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4
    doc = json.loads((out / "report.json").read_text())
    assert abs(doc["max_energy_residual"]) < 1e-8


def test_zero_datum_columns_are_zero(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("sine-shear", "zero"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    for row in rows:
        for cell in row.split(",")[2:]:
            assert float(cell) == 0.0


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "summary.csv").read_bytes() \
        == (out2 / "summary.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() \
        == (out2 / "report.json").read_bytes()


def test_config_roundtrip(tmp_path):
    spec = RunSpec(n_cells=3, scheme="CNLE", nu=0.05, T=2.0, steps=7,
                   datum="random-trig", seed=11, with_local_energy=False)
    path = tmp_path / "echo.ini"
    path.write_text(emit_config(spec))
    again, study = parse_config(path)
    assert again == spec
    assert study is None
    # every [study] key away from its default
    study = StudySpec(base=spec, levels=(2, 4, 5), alpha=0.75,
                      coupling_c=0.125, strict_coupling=False)
    assert all(getattr(study, key) != getattr(StudySpec(base=spec), key)
               for key in ("levels", "alpha", "coupling_c",
                           "strict_coupling"))
    path.write_text(emit_config(spec, study))
    assert parse_config(path) == (spec, study)


@pytest.mark.parametrize("datum", ["sine-shear", "random-trig"])
def test_report_rerender_matches(tmp_path, datum):
    # the report reads the datum's norm from the trajectory, bitwise the
    # norm of the datum the run started from
    cfg = write_cfg(tmp_path, BASE_CFG.replace("sine-shear", datum))
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    re_out = tmp_path / "re"
    assert main(["report", "--traj", str(out),
                 "--out", str(re_out)]) == EXIT_OK
    for name in ("report.txt", "report.json"):
        assert (out / name).read_bytes() == (re_out / name).read_bytes()
    with np.load(out / "trajectory.npz") as stored:
        norm = stored["u0_l2_analytic"]
    assert norm.shape == () and norm.dtype == np.float64
    assert float(norm) == preset_field(datum).l2_norm()


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG + "mystery = 1\n")
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_CONFIG


def test_missing_config_rejected(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_strict_coupling_rejected_before_solve(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[study]\nlevels = 2,3\n"
                                         "alpha = 0.4\ncoupling_c = 0.1\n"
                                         "strict_coupling = true\n")
    out = tmp_path / "st"
    assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("study, flags", [
    ("coupling_c = nan\n", []),
    ("coupling_c = inf\n", []),
    ("alpha = nan\n", []),
    ("alpha = inf\n", []),
    ("alpha = -inf\n", []),
    ("", ["--alpha", "nan"]),
], ids=["coupling-c-nan", "coupling-c-inf", "alpha-nan", "alpha-inf",
        "alpha-minus-inf", "alpha-flag-nan"])
def test_bad_step_rule_rejected_before_solve(tmp_path, study, flags):
    # dt = coupling_c * h^alpha: NaN fails the step count's rounding, and
    # an infinite value a step of size T, or a division by zero
    body = BASE_CFG.replace("scheme = CN", "scheme = CNAB")
    cfg = write_cfg(tmp_path, body + "\n[study]\nlevels = 2,3\n"
                                     "strict_coupling = false\n" + study)
    out = tmp_path / "st"
    assert main(["study", "--config", cfg, "--out", str(out)]
                + flags) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("levels, study", [
    ("11,12", "alpha = 1e5\n"),
    ("2,3", "alpha = -1e5\n"),
    ("2,3", "coupling_c = 1e-320\n"),
], ids=["h-power-underflows", "h-power-underflows-negative-alpha",
        "step-count-overflows"])
def test_level_step_size_rejected_before_solve(tmp_path, levels, study):
    # h^alpha underflows to 0 (h < 1 from n = 11 on), and T over a step
    # size near the smallest subnormal overflows: a division by zero and
    # an infinite step count before each level's size was checked
    body = BASE_CFG.replace("scheme = CN", "scheme = CNAB")
    cfg = write_cfg(tmp_path, body + f"\n[study]\nlevels = {levels}\n"
                                     "strict_coupling = false\n" + study)
    out = tmp_path / "st"
    assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_single_level_study_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[study]\nlevels = 2\n"
                                         "alpha = 0.6\ncoupling_c = 0.1\n")
    assert main(["study", "--config", cfg, "--out",
                 str(tmp_path / "st")]) == EXIT_CONFIG


def test_study_writes_table_and_verdicts(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[study]\nlevels = 2,3\n"
                                         "alpha = 0.6\ncoupling_c = 0.045\n"
                                         "strict_coupling = true\n")
    out = tmp_path / "st"
    assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
    table = (out / "study.csv").read_text().splitlines()
    assert len(table) == 3
    assert (out / "level_n2" / "summary.csv").exists()
    assert (out / "level_n3" / "summary.csv").exists()
    verdicts = dict(line.split("\t")
                    for line in (out / "study_verdicts.txt")
                    .read_text().splitlines())
    assert verdicts["gap_strictly_decreasing"] == "True"


def test_cnab_restriction_violation_recorded(tmp_path):
    # a microscopic c1 makes the explicit-scheme step-size check fail;
    # the run itself is calm and must still be tabulated
    body = BASE_CFG.replace("scheme = CN", "scheme = CNAB")
    body += "c1 = 1e-6\n[study]\nlevels = 2,3\nalpha = 0.6\n" \
            "coupling_c = 0.045\nstrict_coupling = false\n"
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "st"
    assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "study.csv").read_text().splitlines()
    header = rows[0].split(",")
    idx = header.index("cnab_dt_pass")
    assert [r.split(",")[idx] for r in rows[1:]] == ["False", "False"]


def test_picard_failure_exit_code(tmp_path):
    body = BASE_CFG.replace("nu = 0.2", "nu = 0.001") \
                   .replace("T = 0.5", "T = 800.0") \
                   .replace("n_cells = 2", "n_cells = 3") \
                   .replace("steps = 4", "steps = 2") \
                   .replace("sine-shear", "tg-like")
    body += "picard_max_iters = 10\nwith_local_energy = false\n"
    body = body.replace("with_local_energy = true\n", "")
    cfg = write_cfg(tmp_path, body)
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_SOLVER


@pytest.mark.parametrize("T, nu, steps", [("1e-300", "0.2", "1"),
                                         ("0.5", "1e300", "2")])
def test_overflowing_step_is_a_solver_failure(tmp_path, T, nu, steps):
    # dt = 1e-300 or nu = 1e300 puts entries near 1e300 into the step
    # matrix and its right-hand side; the solve guards must reject the
    # answer
    body = BASE_CFG.replace("T = 0.5", f"T = {T}") \
                   .replace("nu = 0.2", f"nu = {nu}") \
                   .replace("steps = 4", f"steps = {steps}") \
                   .replace("sine-shear", "tg-like")
    cfg = write_cfg(tmp_path, body)
    with np.errstate(all="ignore"):
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == EXIT_SOLVER


def _python(code, cwd):
    """Run `code` in a fresh interpreter that imports this torusns."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(torusns.cli.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_solver_failure_is_one_line_on_stderr(tmp_path):
    # dt = 1e-300: the guards reject the step's GMRES answer, and nothing
    # but the failure, with the vectors GMRES used, reaches stderr, no
    # arithmetic warning either
    body = BASE_CFG.replace("T = 0.5", "T = 1e-300") \
                   .replace("steps = 4", "steps = 1") \
                   .replace("sine-shear", "tg-like")
    cfg = write_cfg(tmp_path, body)
    done = _python("import sys, torusns.cli; sys.exit(torusns.cli.main("
                   f"['run', '--config', {cfg!r}, '--out', 'x']))", tmp_path)
    assert done.returncode == EXIT_SOLVER
    assert done.stderr.startswith("solver failure at step 1:")
    assert re.search(r": GMRES, \d+ of 60 vectors: ", done.stderr)
    assert done.stderr.count("\n") == 1


def test_diverging_picard_run_exits_on_its_first_rejected_answer(
        tmp_path, capsys, monkeypatch):
    # CN case 3 at nu = 0.001, dt = 1: the first Picard iterate's GMRES
    # cycle ends on its 60th vector with a residual the guards reject,
    # and that one rejection ends the run
    body = BASE_CFG.replace("case = 1", "case = 3") \
                   .replace("nu = 0.2", "nu = 0.001") \
                   .replace("T = 0.5", "T = 2.0") \
                   .replace("steps = 4", "steps = 2") \
                   .replace("n_cells = 2", "n_cells = 4") \
                   .replace("sine-shear", "random-trig")
    cfg = write_cfg(tmp_path, body + "picard_max_iters = 50\n")
    guard, rejected = linsolve._guard, []

    def counting(*args):
        try:
            return guard(*args)
        except linsolve.LinearSolveError:
            rejected.append(1)
            raise
    monkeypatch.setattr(linsolve, "_guard", counting)
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_SOLVER
    assert len(rejected) == 1
    assert re.match(r"solver failure at step 1: step 1 failed: GMRES, 60 of "
                    r"60 vectors: residual \S+ exceeds 1e-11 \* \|rhs\|\n$",
                    capsys.readouterr().err)


def test_runs_and_reports_load_no_scipy_linalg(tmp_path):
    # a case-3 CN run (every Picard iterate a GMRES solve), the report of
    # its trajectory and a study: every solve is the package's own GMRES
    # or block solve, so neither scipy.linalg nor scipy.sparse.linalg loads
    body = BASE_CFG.replace("case = 1", "case = 3") \
                   .replace("steps = 4", "steps = 2") \
                   .replace("sine-shear", "tg-like")
    cfg = write_cfg(tmp_path, body + "\n[study]\nlevels = 2,3\n")
    done = _python(f"""
import sys
from torusns import cli, linsolve
gmres, calls = linsolve._gmres, []
linsolve._gmres = lambda *args: calls.append(1) or gmres(*args)
for args in (["run", "--config", {cfg!r}, "--out", "run"],
             ["report", "--traj", "run", "--out", "report"],
             ["study", "--config", {cfg!r}, "--out", "study"]):
    assert cli.main(args) == 0
    print(args[0], len(calls),
          *(name in sys.modules for name in ("scipy.linalg",
                                             "scipy.sparse.linalg")))
""", tmp_path)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[0] for line in lines] == ["run", "report", "study"]
    assert int(lines[0][1]) > 2
    assert all(line[2:] == ["False", "False"] for line in lines)


def test_runs_and_reports_import_no_scipy(tmp_path):
    # the products and solves of a run, a report, a study and the
    # self-checks are the package's own: none imports a scipy module
    body = BASE_CFG.replace("case = 1", "case = 3") \
                   .replace("steps = 4", "steps = 2") \
                   .replace("sine-shear", "tg-like")
    cfg = write_cfg(tmp_path, body + "\n[study]\nlevels = 2,3\n")
    done = _python(f"""
import sys
from torusns import cli
for args in (["run", "--config", {cfg!r}, "--out", "run"],
             ["report", "--traj", "run", "--out", "report"],
             ["study", "--config", {cfg!r}, "--out", "study"],
             ["check"]):
    assert cli.main(args) == 0
    print("loaded", args[0], *sorted(name for name in sys.modules
                                     if name.split(".")[0] == "scipy"))
""", tmp_path)
    assert done.returncode == 0, done.stderr
    # `torusns check` prints its own report to stdout too
    loaded = [line.split()[1:] for line in done.stdout.splitlines()
              if line.startswith("loaded ")]
    assert loaded == [["run"], ["report"], ["study"], ["check"]]


def test_report_imports_no_numpy_random(tmp_path):
    # a random-trig run draws its datum with numpy.random; the report of
    # its trajectory builds no datum, so it never imports numpy.random
    # (nor, through it, hashlib and libcrypto).  Neither loads the
    # self-check suite, which only `torusns check` runs.
    cfg = write_cfg(tmp_path, BASE_CFG.replace("sine-shear", "random-trig"))
    for args in (["run", "--config", cfg, "--out", "run"],
                 ["report", "--traj", "run", "--out", "report"]):
        done = _python(f"""
import sys
from torusns import cli
assert cli.main({args!r}) == 0
print("numpy.random" in sys.modules, "torusns.checks" in sys.modules)
""", tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(args[0] == "run"), "False"]


def test_datum_is_built_once_per_run(tmp_path, monkeypatch):
    # a run builds its datum once, a report none and a study once for
    # all its levels: the settings check builds none
    built = []

    def preset_field_spy(*args):
        built.append(args)
        return preset_field(*args)

    monkeypatch.setattr(torusns.cli, "preset_field", preset_field_spy)
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[study]\nlevels = 2,3\n")
    counts = []
    for args in (["run", "--config", cfg, "--out", str(tmp_path / "run")],
                 ["report", "--traj", str(tmp_path / "run"),
                  "--out", str(tmp_path / "report")],
                 ["study", "--config", cfg, "--out", str(tmp_path / "st")]):
        built.clear()
        assert main(args) == EXIT_OK
        counts.append(len(built))
    assert counts == [1, 0, 1]


def test_overflowing_run_is_one_line_on_stderr(tmp_path):
    # the unstable CNAB settings: the state overflows within the run,
    # which still exits 0 with its artifacts, and stderr holds one line
    # that names the first step whose state is not finite, no arithmetic
    # warning
    cfg = write_cfg(tmp_path, """\
[run]
scheme = CNAB
case = 1
nu = 0.005
T = 128
steps = 64
n_cells = 3
c1 = 5
datum = tg-like
""")
    done = _python("import sys, torusns.cli; sys.exit(torusns.cli.main("
                   f"['run', '--config', {cfg!r}, '--out', 'x']))", tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    u = np.load(tmp_path / "x" / "trajectory.npz")["u"]
    first = int(np.argmin(np.isfinite(u).all(axis=1)))
    assert 0 < first < len(u) - 1
    assert done.stderr == (f"warning: the state is not finite from step "
                           f"{first} on\n")
    doc = json.loads((tmp_path / "x" / "report.json").read_text(),
                     parse_constant=float)
    assert np.isnan(doc["max_energy_residual"])


@pytest.mark.parametrize("command", ["run", "study", "report"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    # --out below a regular file cannot be made: one line, exit 1
    cfg = write_cfg(tmp_path, BASE_CFG + "\n[study]\nlevels = 2,3\n")
    stored = tmp_path / "stored"
    if command == "report":
        assert main(["run", "--config", cfg, "--out", str(stored)]) \
            == EXIT_OK
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["--traj", str(stored)] if command == "report" else \
        ["--config", cfg]
    assert main([command, *args, "--out", str(blocker / "x")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_check_command():
    assert main(["check"]) == EXIT_OK


def test_increment_verdict_reads_increment_sum(tmp_path, monkeypatch):
    # gap_l2 falls while increment_sum grows: only the gap verdict holds
    fake = iter([(0.4, 1.0), (0.2, 3.0)])

    def run_single_stub(spec, out_dir, study=None, datum=None):
        gap, inc = next(fake)
        return SimpleNamespace(
            h=1.0, dt=0.1, gap_l2=gap, increment_sum=inc,
            local_energy_min=0.0, pressure_ratio_max=0.0,
            coupling=SimpleNamespace(cn_ratio=0.0, cn_pass=True,
                                     cnle_pass=True, cnab_dt_pass=True))

    monkeypatch.setattr(torusns.cli, "run_single", run_single_stub)
    study = StudySpec(base=RunSpec(datum="sine-shear"), levels=(2, 3))
    _, verdicts = run_study(study, str(tmp_path / "st"))
    assert verdicts["gap_strictly_decreasing"] is True
    assert verdicts["increment_bound_decreasing"] is False


def test_study_step_count_uses_the_mesh_h(tmp_path, monkeypatch):
    # the h of the dt rule is bitwise the h of the mesh the level runs on
    # (sqrt(3) * 2 * pi / n differs from it by one ulp at n = 13, 17, ...)
    levels = tuple(range(2, 41))
    seen = []

    def study_steps_spy(T, coupling_c, alpha, h):
        seen.append(h)
        return 1

    def run_single_stub(spec, out_dir, study=None, datum=None):
        return SimpleNamespace(
            h=1.0, dt=0.1, gap_l2=0.0, increment_sum=0.0,
            local_energy_min=0.0, pressure_ratio_max=0.0,
            coupling=SimpleNamespace(cn_ratio=0.0, cn_pass=True,
                                     cnle_pass=True, cnab_dt_pass=True))

    monkeypatch.setattr(torusns.cli, "study_steps", study_steps_spy)
    monkeypatch.setattr(torusns.cli, "run_single", run_single_stub)
    run_study(StudySpec(base=RunSpec(datum="sine-shear"), levels=levels),
              str(tmp_path / "st"))
    assert seen == [build_torus_mesh(n).h for n in levels]


def test_rerender_closes_trajectory_file(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    opened = []
    real_load = np.load

    def load_spy(*args, **kwargs):
        opened.append(real_load(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(torusns.cli.np, "load", load_spy)
    rerender_report(str(out), str(tmp_path / "re"))
    assert len(opened) == 1
    assert opened[0].fid is None  # NpzFile.close() drops the file handle


@pytest.mark.parametrize("extra", ["C_cnle = 0\n",
                                   "scheme = CNAB\nc1 = -1\n"],
                         ids=["CN-C_cnle-zero", "CNAB-c1-negative"])
def test_bad_step_constant_rejected_before_solve(tmp_path, extra):
    body = BASE_CFG.replace("scheme = CN\n", "") + extra
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("datum, extra", [
    ("sine-shear", "cn_threshold = nan\n"),
    ("sine-shear", "cn_threshold = -1\n"),
    ("sine-shear", "cn_threshold = 0\n"),
    ("sine-shear", "cn_threshold = inf\n"),
    ("random-trig", "degree = 0\n"),
    ("random-trig", "degree = -2\n"),
], ids=["cn-threshold-nan", "cn-threshold-negative", "cn-threshold-zero",
        "cn-threshold-inf", "random-trig-degree-zero",
        "random-trig-degree-negative"])
def test_bad_run_parameter_rejected_before_solve(tmp_path, datum, extra):
    # a meaningless cn_pass, or a zero datum, would otherwise exit 0
    body = BASE_CFG.replace("sine-shear", datum) + extra
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "study"])
def test_negative_seed_rejected_before_solve(tmp_path, command):
    # a datum seed is a non-negative integer: the settings check, which
    # builds no datum, rejects it before a study makes its directory
    body = BASE_CFG.replace("sine-shear", "random-trig") + "seed = -1\n"
    cfg = write_cfg(tmp_path, body + "\n[study]\nlevels = 2,3\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("body", [
    BASE_CFG.replace("[run]\n", ""),             # no section header
    BASE_CFG + "steps = 8\n",                    # duplicate key
    BASE_CFG.replace("steps = 4", "steps = four"),
    BASE_CFG.replace("sine-shear", "vortex-ring"),
    BASE_CFG.replace("sine-shear", "sine%shear"),  # bad interpolation
    BASE_CFG + "\n[study]\nlevels = 2,x\n",
    BASE_CFG.replace("T = 0.5", "T = inf"),
    BASE_CFG.replace("nu = 0.2", "nu = inf"),
    BASE_CFG + "picard_tol = 0\n",
    BASE_CFG.replace("local_energy = true", "local_energy = flase"),
], ids=["no-section", "duplicate-key", "bad-int", "unknown-datum",
        "bad-interpolation", "bad-levels", "T-inf", "nu-inf",
        "picard-tol-zero", "bad-bool"])
def test_config_faults_exit_with_config_code(tmp_path, body):
    cfg = write_cfg(tmp_path, body)
    command = "study" if "[study]" in body else "run"
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_CONFIG


def test_bad_levels_flag_exits_with_config_code(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x"),
                 "--levels", "2,three"]) == EXIT_CONFIG


@pytest.mark.parametrize("levels", ["3,2", "2,2", "2,4,3"])
def test_levels_not_strictly_increasing_rejected(tmp_path, levels):
    # consecutive-level verdicts need increasing levels, and a repeated
    # level would rewrite its own output directory
    out = tmp_path / "st"
    cfg = write_cfg(tmp_path, BASE_CFG + f"\n[study]\nlevels = {levels}\n")
    assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert main(["study", "--config", write_cfg(tmp_path, BASE_CFG, "b.ini"),
                 "--out", str(out), "--levels", levels]) == EXIT_CONFIG
    assert not out.exists()


def test_pressure_without_velocity_is_a_solver_failure(tmp_path, capsys,
                                                       monkeypatch):
    def run_stub(config, spaces, datum):
        N = config.N
        return DiscreteTrajectory(
            config=config, times=config.dt * np.arange(N + 1),
            u=np.zeros((N + 1, 3 * spaces.n_scalar)),
            p=np.ones((N, spaces.pressure.dim)),
            picard_iters=np.zeros(N, dtype=int), residuals=np.zeros(N),
            u0_l2_analytic=datum.l2_norm())

    monkeypatch.setattr(torusns.cli, "run", run_stub)
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_SOLVER
    assert "at step 1" in capsys.readouterr().err


def _drop_trajectory(path):
    path.unlink()


def _garble_trajectory(path):
    path.write_bytes(b"not an archive\n" * 8)


def _truncate_trajectory(path):
    path.write_bytes(path.read_bytes()[:100])


def _array_for_trajectory(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _reshape_trajectory(path):
    with np.load(path) as data:
        arrays = dict(data)
    arrays["u"] = arrays["u"][:-1]
    np.savez(path, **arrays)


def _strip_trajectory(key):
    """Damage that drops the array `key`."""
    def damage(path):
        with np.load(path) as data:
            arrays = dict(data)
        del arrays[key]
        np.savez(path, **arrays)
    return damage


def _norm_as_text(path):
    with np.load(path) as data:
        arrays = dict(data)
    arrays["u0_l2_analytic"] = arrays["u0_l2_analytic"].astype(str)
    np.savez(path, **arrays)


def _resize_steps(**lengths):
    """Damage that gives the named arrays of the 4-step run (5 times, 4
    Picard counts and residuals, the datum's norm a 0-d array) other
    lengths."""
    def damage(path):
        with np.load(path) as data:
            arrays = dict(data)
        for key, length in lengths.items():
            arrays[key] = np.resize(arrays[key], length)
        np.savez(path, **arrays)
    return damage


@pytest.mark.parametrize("damage", [
    _drop_trajectory, _garble_trajectory, _truncate_trajectory,
    _array_for_trajectory, _reshape_trajectory, _strip_trajectory("p"),
    _strip_trajectory("u0_l2_analytic"), _resize_steps(u0_l2_analytic=1),
    _norm_as_text,
    _resize_steps(times=4), _resize_steps(times=6),
    _resize_steps(picard_iters=3), _resize_steps(residuals=5),
    _resize_steps(times=1, picard_iters=8, residuals=1)],
    ids=["missing", "garbage", "truncated", "npy-array", "mis-shaped",
         "missing-key", "norm-missing", "norm-shaped", "norm-text",
         "times-short", "times-long", "picard-short", "residuals-long",
         "step-arrays"])
def test_report_on_bad_trajectory_is_a_config_error(tmp_path, capsys,
                                                    damage):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    damage(out / "trajectory.npz")
    assert main(["report", "--traj", str(out),
                 "--out", str(tmp_path / "re")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1

