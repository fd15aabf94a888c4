"""torusns benchmark: one workload, one seed, one measuring window.

    python3 bench/run.py --workload cn3-picard --seed 0 --seconds 30 --trace 0

Each sample is a fresh process (``bench/sample.py``) that calls the public
CLI entry ``torusns.cli.main`` -- ``torusns run`` or ``torusns report`` --
on a configuration made from the workload and the seed.  Samples run one
at a time until the window is used up, and every sample's outputs are
checked (``check_outputs``); a nonzero exit or a failed check makes the
sample fail.  The program is taken from ``src/`` of the checkout this
file sits in.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` alternates traced and untraced samples
and reports the per-layer metrics of the traced ones (see ``spans.py``)
plus the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics with their units and
record the environment.  Spans and results are also written under
``.bench_work/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

sys.path.insert(0, str(BENCH))
from spans import layer_metrics, setup_seconds  # noqa: E402

#: identity tolerances, as asserted by the test-suite
ENERGY_TOL = 1e-8          # CN step energy balance, times max(1, |u0|^2)
DIVERGENCE_TOL = 1e-9      # divergence_max_rel
STEP_RESIDUAL_TOL = 1e-11  # single-solve steps: the solve_saddle guard
PICARD_RESIDUAL_TOL = 1e-7  # CN steps: 1e3 * picard_tol, nonlinear residual
GAP_TOL = 1e-12            # gap_l2 = dt/12 * increment_sum, relative
#: agreement with the stored per-seed reference values, relative
REFERENCE_RTOL = 1e-8

SAMPLE_TIMEOUT_S = 150.0
MIN_SAMPLES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    command: str   # the CLI subcommand each sample runs: "run" or "report"
    config: dict   # [run] section; datum and seed are added per run


WORKLOADS = {w.name: w for w in (
    # Picard-iterated CN with the Bernoulli variable: 21 saddle
    # factorizations and as many convection/Bernoulli assemblies.  At
    # dt = 1/128 every seed takes 7 Picard iterations per step (at 1/32,
    # 10 to 13), so the work does not depend on the seed.
    Workload("cn3-picard", "run", dict(
        scheme="CN", case=3, nu=0.1, T=0.0234375, steps=3, n_cells=5,
        with_local_energy=False)),
    # Explicit convection: one reused factorization, 63 triangular solves
    # and 126 convection_rhs assemblies.
    Workload("cnab-explicit", "run", dict(
        scheme="CNAB", case=1, nu=0.1, T=1.0, steps=64, n_cells=5,
        with_local_energy=False)),
    # Diagnostics re-rendered from a stored 128-step trajectory: local
    # energy and pressure ratios, no factorization, no convection.
    Workload("report-rerender", "report", dict(
        scheme="CNAB", case=1, nu=0.1, T=2.0, steps=128, n_cells=4,
        with_local_energy=True)),
)}


# ---------------------------------------------------------------------------
# environment and processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    for var in THREAD_VARS:
        env[var] = THREADS
    env.pop("TORUSNS_THREADS", None)
    return env


def environment():
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit, "machine": platform.machine(),
            "threads": {var: THREADS for var in THREAD_VARS}}


@dataclass
class Sample:
    index: int
    traced: bool
    wall_s: float
    rss_mb: float
    record: dict | None
    out_dir: Path
    problems: list


def spawn(cli_args, record_path, traced, log_path):
    """Run one sample process; return (wall s, peak RSS MB, exit code)."""
    cmd = [sys.executable, str(BENCH / "sample.py"), str(SRC),
           str(record_path), "1" if traced else "0", "--", *cli_args]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - t0 > SAMPLE_TIMEOUT_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_config(workload, seed, path):
    cfg = dict(workload.config, datum="random-trig", seed=seed)
    lines = ["[run]"] + [f"{k} = {v!r}" if isinstance(v, float)
                         else f"{k} = {v}" for k, v in cfg.items()]
    path.write_text("\n".join(lines) + "\n")


def run_spec(workload):
    """Scheme, step count, time step and viscosity of a workload's run."""
    cfg = workload.config
    return cfg["scheme"], cfg["steps"], cfg["T"] / cfg["steps"], cfg["nu"]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("step", "t", "u_l2", "grad_mid_l2", "p_l2", "energy_residual")


def read_summary(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh]


def physics_values(report, rows):
    """Scalars compared against the stored per-seed reference."""
    vals = {}
    for col in ("u_l2", "grad_mid_l2", "p_l2"):
        column = [float(r[col]) for r in rows]
        vals[f"summary.{col}.first"] = column[0]
        vals[f"summary.{col}.last"] = column[-1]
        vals[f"summary.{col}.sum"] = math.fsum(column)
        vals[f"summary.{col}.max"] = max(column)
    for key in ("u0_l2_discrete", "u0_h1_discrete", "u0_l2_analytic",
                "gap_l2", "increment_sum", "pressure_ratio_max"):
        vals[key] = report[key]
    for key, v in (report.get("local_energy") or {}).items():
        vals[f"local_energy.{key}"] = v
    return vals


def _same_scalar(text, value):
    if value is None or isinstance(value, (bool, str)):
        return text == str(value)
    parsed = float(text)
    return parsed == value or (math.isnan(parsed) and math.isnan(value))


def check_outputs(workload, seed, out, references):
    """Problems found in the artifact set a `torusns run` wrote to `out`."""
    scheme, steps, dt, nu = run_spec(workload)
    try:
        report = json.loads((out / "report.json").read_text())
        text = (out / "report.txt").read_text()
        rows = read_summary(out / "summary.csv")
        with np.load(out / "trajectory.npz") as traj:
            npz_residuals = traj["residuals"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    try:
        # identities the schemes promise
        u0_sq = max(1.0, report["u0_l2_discrete"] ** 2)
        energy = report["energy_residuals"]
        balanced = energy if scheme == "CN" else energy[:1]  # CN first step
        worst = max(abs(v) for v in balanced)
        if not worst <= ENERGY_TOL * u0_sq:
            problems.append(f"energy residual {worst:.3e}")
        if not report["divergence_max_rel"] <= DIVERGENCE_TOL:
            problems.append(
                f"divergence_max_rel {report['divergence_max_rel']:.3e}")
        if list(npz_residuals) != report["step_residuals"]:
            problems.append("trajectory.npz residuals disagree with "
                            "report.json")
        for m, r in enumerate(report["step_residuals"], start=1):
            tol = (PICARD_RESIDUAL_TOL if scheme == "CN" or m == 1
                   else STEP_RESIDUAL_TOL)
            if not r <= tol:
                problems.append(f"step {m} residual {r:.3e} > {tol:.0e}")
        expected_gap = dt / 12.0 * report["increment_sum"]
        if not abs(report["gap_l2"] - expected_gap) <= GAP_TOL * expected_gap:
            problems.append("gap_l2 != dt/12 * increment_sum")
        # the three renderings agree with each other; the energy residual
        # of each summary.csv row follows from its norms
        if list(rows[0]) != list(CSV_COLUMNS):
            problems.append(f"summary.csv header {list(rows[0])}")
        if len(rows) != steps or len(energy) != steps:
            problems.append(f"expected {steps} steps, got {len(rows)} rows")
        u_prev = report["u0_l2_discrete"]
        for m, row in enumerate(rows, start=1):
            u, g = float(row["u_l2"]), float(row["grad_mid_l2"])
            balance = 0.5 * (u * u - u_prev * u_prev) + nu * dt * g * g
            u_prev = u
            if (int(row["step"]) != m
                    or abs(float(row["t"]) - m * dt) > 1e-12 * m * dt
                    or float(row["energy_residual"]) != energy[m - 1]
                    or abs(balance - energy[m - 1]) > 1e-12 * u0_sq):
                problems.append(f"summary.csv row {m} disagrees with "
                                "report.json")
                break
        for line in text.splitlines():
            key, value = line.split("\t")
            if not _same_scalar(value, report[key]):
                problems.append(f"report.txt {key} disagrees with report.json")
        # physics within roundoff of the seed code's values
        ref = references.get(workload.name, {}).get(str(seed))
        if ref is not None:
            got = physics_values(report, rows)
            le_scale = max([abs(v) for k, v in ref.items()
                            if k.startswith("local_energy.")], default=0.0)
            for key, want in ref.items():
                scale = (le_scale if key.startswith("local_energy.")
                         else abs(want))
                if not abs(got[key] - want) <= REFERENCE_RTOL * scale:
                    problems.append(
                        f"{key} = {got[key]!r}, reference {want!r}")
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def check_rerender(traj_dir, out):
    """Re-rendered reports must be byte-identical to the run's own."""
    problems = []
    for name in ("report.txt", "report.json"):
        try:
            same = (traj_dir / name).read_bytes() == (out / name).read_bytes()
        except OSError as exc:
            return [f"unreadable output: {exc}"]
        if not same:
            problems.append(f"{name} differs from the run that wrote the "
                            "trajectory")
    return problems


def artifact_bytes(out):
    """Bytes of the artifacts written; runmeta.ini carries a wall time."""
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name != "runmeta.ini")


def load_references():
    try:
        return json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.references = load_references()
        self.config = work / "config.ini"
        write_config(workload, seed, self.config)
        self.traj_dir = None
        self.prep_problems = []
        if workload.command == "report":
            self.traj_dir = work / "trajectory"
            _, _, code = spawn(self.cli_args("run", self.traj_dir),
                               work / "trajectory.record.json", False,
                               work / "trajectory.log")
            self.prep_problems = ([f"trajectory run exited {code}"] if code
                                  else self.check(self.traj_dir, "run"))

    def cli_args(self, command, out):
        if command == "run":
            return ["run", "--config", str(self.config), "--out", str(out)]
        return ["report", "--traj", str(self.traj_dir), "--out", str(out)]

    def check(self, out, command):
        if command == "run":
            return check_outputs(self.workload, self.seed, out,
                                 self.references)
        return check_rerender(self.traj_dir, out)

    def sample(self, index, traced, corrupt=None):
        out = self.work / f"sample{index}"
        record_path = self.work / f"sample{index}.json"
        wall, rss, code = spawn(self.cli_args(self.workload.command, out),
                                record_path, traced,
                                self.work / f"sample{index}.log")
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = None
        if corrupt is not None:
            corrupt(out)
        problems = list(self.prep_problems)
        if code != 0 or record is None or record["exit"] != 0:
            problems.append(f"exit code {code}")
        else:
            problems += self.check(out, self.workload.command)
        return Sample(index, traced, wall, rss, record, out, problems)


def measure(bench, seconds, trace, corrupt=None):
    """Samples until the window is used; traced runs alternate T, U, T..."""
    samples = []
    t0 = time.perf_counter()
    while True:
        s = bench.sample(len(samples), trace and len(samples) % 2 == 0,
                         corrupt)
        samples.append(s)
        elapsed = time.perf_counter() - t0
        if len(samples) >= MIN_SAMPLES and elapsed + s.wall_s > seconds:
            return samples


def end_to_end(samples):
    setups = [setup_seconds(s.record) for s in samples if s.record]
    if not setups:
        raise SystemExit("no sample completed; nothing to report")
    return {"wall_s": statistics.median(s.wall_s for s in samples),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples)}


EXACT = ("calls", "picard_iters", "lu_fill_nnz", "artifact_bytes", "spans")


def per_layer(bench, samples):
    """Median per-layer metrics over the traced samples.

    Counts must repeat exactly between samples of one seed; a traced
    sample whose counts differ from the first one's fails.
    """
    traced = [s for s in samples if s.traced and s.record]
    if not traced:
        raise SystemExit("no traced sample completed; nothing to report")
    rows = []
    for s in traced:
        row = layer_metrics(s.record, s.wall_s)
        # a report run re-renders the stored trajectory
        trajectory = s.out_dir if bench.traj_dir is None else bench.traj_dir
        with np.load(trajectory / "trajectory.npz") as traj:
            row["steppers.picard_iters"] = int(traj["picard_iters"].sum())
        row["cli.artifact_bytes"] = artifact_bytes(s.out_dir)
        row["trace.wall_s"] = s.wall_s
        rows.append(row)
    for s, row in zip(traced[1:], rows[1:]):
        for key in row:
            if key.endswith(EXACT) and row[key] != rows[0][key]:
                s.problems.append(f"{key} {row[key]} != {rows[0][key]} in "
                                  "the first traced sample")
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    untraced = [s.wall_s for s in samples if not s.traced]  # never empty
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(untraced))
    return metrics


def run(workload, seed, seconds, trace, corrupt=None):
    """Measure one run; return (result dict, human-readable lines)."""
    work = WORK / "runs" / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work)
        samples = measure(bench, seconds, trace, corrupt)
        metrics = per_layer(bench, samples) if trace else end_to_end(samples)
        if trace:
            spans_doc = {"workload": workload.name, "seed": seed,
                         "samples": [{"id": s.index, "wall_s": s.wall_s,
                                      "spans": s.record["spans"]}
                                     for s in samples
                                     if s.traced and s.record]}
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{workload.name}-seed{seed}.json").write_text(
                json.dumps(spans_doc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for s in samples if s.problems)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in listed}}
    env = environment()
    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# {workload.name} seed {seed}: {len(samples)} samples "
             f"({sum(s.traced for s in samples)} traced), "
             f"{failed} failed"]
    for s in samples:
        for p in s.problems:
            lines.append(f"# sample {s.index} FAILED: {p}")
    missing = sorted({n for s in samples if s.record
                      for n in s.record["missing"]})
    if missing:
        lines.append(f"# WARNING: no function for spans {missing}; "
                     "their metrics read 0")
    if str(seed) not in bench.references.get(workload.name, {}):
        lines.append(f"# no stored reference for seed {seed}; identity and "
                     "consistency checks only")
    for k, v in result["metrics"].items():
        lines.append(f"{k} {v['value']:.6g} {v['unit']}")
    lines.append(f"failed_frac {failed / len(samples):.6g} fraction")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps({"env": env, "result": result,
                              "wall_s": [s.wall_s for s in samples]},
                             indent=1))
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torusns" / "cli.py").is_file():
        raise SystemExit(f"no torusns package under {SRC}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
