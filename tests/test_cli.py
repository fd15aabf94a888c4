import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import torusns.cli
from torusns.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER,
                         CSV_COLUMNS, RunSpec, StudySpec, emit_config, main,
                         parse_config, rerender_report, run_single,
                         run_study)
from torusns.steppers import ConfigError, DiscreteTrajectory


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


def test_report_rerender_matches(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    re_out = tmp_path / "re"
    assert main(["report", "--traj", str(out),
                 "--out", str(re_out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() \
        == (re_out / "report.json").read_bytes()


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


def test_check_command():
    assert main(["check"]) == EXIT_OK


def test_increment_verdict_reads_increment_sum(tmp_path, monkeypatch):
    # gap_l2 falls while increment_sum grows: only the gap verdict holds
    fake = iter([(0.4, 1.0), (0.2, 3.0)])

    def run_single_stub(spec, out_dir, study=None):
        gap, inc = next(fake)
        return SimpleNamespace(
            h=1.0, dt=0.1, gap_l2=gap, increment_sum=inc,
            local_energy_min=0.0, pressure_ratio_max=0.0,
            coupling=dict(cn_ratio=0.0, cn_pass=True, cnle_pass=True,
                          cnab_dt_pass=True))

    monkeypatch.setattr(torusns.cli, "run_single", run_single_stub)
    study = StudySpec(base=RunSpec(datum="sine-shear"), levels=(2, 3))
    _, verdicts = run_study(study, str(tmp_path / "st"))
    assert verdicts["gap_strictly_decreasing"] is True
    assert verdicts["increment_bound_decreasing"] is False


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


@pytest.mark.parametrize("body", [
    BASE_CFG.replace("[run]\n", ""),             # no section header
    BASE_CFG + "steps = 8\n",                    # duplicate key
    BASE_CFG.replace("steps = 4", "steps = four"),
    BASE_CFG.replace("sine-shear", "vortex-ring"),
    BASE_CFG.replace("sine-shear", "sine%shear"),  # bad interpolation
    BASE_CFG + "\n[study]\nlevels = 2,x\n",
], ids=["no-section", "duplicate-key", "bad-int", "unknown-datum",
        "bad-interpolation", "bad-levels"])
def test_config_faults_exit_with_config_code(tmp_path, body):
    cfg = write_cfg(tmp_path, body)
    command = "study" if "[study]" in body else "run"
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_CONFIG


def test_bad_levels_flag_exits_with_config_code(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x"),
                 "--levels", "2,three"]) == EXIT_CONFIG


def test_pressure_without_velocity_is_a_solver_failure(tmp_path, capsys,
                                                       monkeypatch):
    def run_stub(config, spaces, datum):
        N = config.N
        return DiscreteTrajectory(
            config=config, h=spaces.h, times=config.dt * np.arange(N + 1),
            u=np.zeros((N + 1, 3 * spaces.n_scalar)),
            p=np.ones((N, spaces.pressure.dim)),
            picard_iters=np.zeros(N, dtype=int), residuals=np.zeros(N))

    monkeypatch.setattr(torusns.cli, "run", run_stub)
    cfg = write_cfg(tmp_path, BASE_CFG)
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "x")]) == EXIT_SOLVER
    assert "at step 1" in capsys.readouterr().err
