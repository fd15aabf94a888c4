"""Command-line front end: single runs, refinement studies, self checks.

Configuration lives in a flat INI file ([run] and optionally [study]
sections, key = value).  A run writes, into the output directory:

    summary.csv      per step: t, |u|_2, |grad u_mid|_2, |p|_2, energy residual
    report.txt       flat name<TAB>value diagnostics
    report.json      diagnostics with per-step arrays
    trajectory.npz   raw coefficient history
    runmeta.ini      echo of the spec plus version and wall time

`study` repeats a run over a list of mesh levels with the step size
slaved to the mesh size (dt = C h^alpha) and tabulates the diagnostics
per level; `report` re-renders diagnostics from a stored trajectory;
`check` runs the structural identity suite.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 check failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .checks import run_checks
from .diagnostics import build_report, energy_residuals
from .fespace import build_spaces, velocity_h1_semi, velocity_l2, pressure_l2
from .linsolve import LinearSolveError
from .mesh import build_torus_mesh
from .steppers import ConfigError, SchemeConfig, StepperError, run
from .trig import preset_field

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

CSV_COLUMNS = ("step", "t", "u_l2", "grad_mid_l2", "p_l2", "energy_residual")


@dataclass
class RunSpec:
    n_cells: int = 3
    scheme: str = "CN"
    case: int = 1
    nu: float = 0.1
    T: float = 1.0
    steps: int = 16
    datum: str = "tg-like"
    seed: int = 0
    degree: int = 2
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    c1: float = 1.0
    C_cnle: float = 1.0
    cn_threshold: float = 1.0
    with_local_energy: bool = True

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(scheme=self.scheme, case=self.case, nu=self.nu,
                            T=self.T, N=self.steps,
                            picard_tol=self.picard_tol,
                            picard_max_iters=self.picard_max_iters,
                            c1=self.c1, C_cnle=self.C_cnle)

    def validate(self):
        if self.n_cells < 2:
            raise ConfigError("n_cells must be >= 2")
        self.scheme_config()
        try:
            field = preset_field(self.datum, self.seed, self.degree)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        div = field.divergence()
        if div.modes and max(abs(c) for c in div.modes.values()) > 1e-12:
            raise ConfigError(f"datum {self.datum} is not divergence-free")
        if np.abs(field.mean()).max() > 1e-12:
            raise ConfigError(f"datum {self.datum} is not mean-free")
        return field


@dataclass
class StudySpec:
    base: RunSpec
    levels: tuple = (2, 3, 4)
    alpha: float = 0.6
    coupling_c: float = 0.05
    strict_coupling: bool = True

    def validate(self):
        if len(self.levels) < 2:
            raise ConfigError("a study needs at least 2 levels")
        if any(n < 2 for n in self.levels):
            raise ConfigError("levels must be >= 2")
        if (self.strict_coupling and self.base.scheme == "CN"
                and not self.alpha > 0.5):
            raise ConfigError("strict coupling for CN requires alpha > 0.5")
        if self.coupling_c <= 0:
            raise ConfigError("coupling_c must be positive")
        self.base.validate()


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def _coerce(value, target_type):
    if target_type is bool:
        return str(value).strip().lower() in ("1", "true", "yes", "on")
    try:
        return target_type(value)
    except ValueError as exc:
        raise ConfigError(f"bad {target_type.__name__} value "
                          f"{value!r}") from exc


def parse_config(path) -> tuple[RunSpec, StudySpec | None]:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        read = cp.read(path)
        # dict() reads, and so interpolates, every value inside the try
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in sections:
        raise ConfigError("config needs a [run] section")
    kwargs = {}
    types = {f.name: f.type for f in fields(RunSpec)}
    for key, value in sections["run"].items():
        if key not in types:
            raise ConfigError(f"unknown [run] key: {key}")
        target = {"int": int, "float": float, "str": str,
                  "bool": bool}[types[key]]
        kwargs[key] = _coerce(value, target)
    spec = RunSpec(**kwargs)
    study = None
    if "study" in sections:
        skw = {}
        for key, value in sections["study"].items():
            if key == "levels":
                skw["levels"] = tuple(_coerce(v, int)
                                      for v in value.split(","))
            elif key in ("alpha", "coupling_c"):
                skw[key] = _coerce(value, float)
            elif key == "strict_coupling":
                skw["strict_coupling"] = _coerce(value, bool)
            else:
                raise ConfigError(f"unknown [study] key: {key}")
        study = StudySpec(base=spec, **skw)
    return spec, study


def emit_config(spec: RunSpec, study: StudySpec | None = None,
                extra_meta: dict | None = None) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["run"] = {f.name: str(getattr(spec, f.name)) for f in fields(RunSpec)}
    if study is not None:
        cp["study"] = {
            "levels": ",".join(str(n) for n in study.levels),
            "alpha": str(study.alpha),
            "coupling_c": str(study.coupling_c),
            "strict_coupling": str(study.strict_coupling),
        }
    if extra_meta:
        cp["meta"] = {k: str(v) for k, v in extra_meta.items()}
    import io
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "%.17g" % float(x)


def write_summary_csv(path, trajectory, spaces) -> None:
    u = trajectory.u
    columns = zip(trajectory.times[1:], velocity_l2(spaces, u[1:]),
                  velocity_h1_semi(spaces, 0.5 * (u[1:] + u[:-1])),
                  pressure_l2(spaces, trajectory.p),
                  energy_residuals(trajectory, spaces))
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for m, values in enumerate(columns, start=1):
            fh.write(",".join([str(m)] + [_fmt(v) for v in values]) + "\n")


def run_single(spec: RunSpec, out_dir, study: StudySpec | None = None):
    """Execute one run and write its artifact set; returns the report."""
    datum = spec.validate()
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    mesh = build_torus_mesh(spec.n_cells)
    spaces = build_spaces(mesh)
    config = spec.scheme_config()
    trajectory = run(config, spaces, datum)
    report = build_report(trajectory, spaces, u0_norm=datum.l2_norm(),
                          with_local_energy=spec.with_local_energy,
                          cn_threshold=spec.cn_threshold)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), trajectory, spaces)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report.to_tab_text())
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    np.savez(os.path.join(out_dir, "trajectory.npz"),
             times=trajectory.times, u=trajectory.u, p=trajectory.p,
             picard_iters=trajectory.picard_iters,
             residuals=trajectory.residuals)
    meta = {"version": f"torusns-{__version__}",
            "wall_time_s": f"{time.time() - t0:.3f}"}
    with open(os.path.join(out_dir, "runmeta.ini"), "w") as fh:
        fh.write(emit_config(spec, study, meta))
    return report


STUDY_COLUMNS = ("level", "n_cells", "h", "dt", "steps", "gap_l2",
                 "increment_sum", "local_energy_min", "pressure_ratio_max",
                 "cn_ratio", "cn_pass", "cnle_pass", "cnab_dt_pass")


def run_study(study: StudySpec, out_dir):
    """Refinement study with dt = coupling_c * h^alpha per level."""
    study.validate()
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    reports = []
    for lvl, n in enumerate(study.levels):
        h = np.sqrt(3.0) * 2.0 * np.pi / n
        dt_target = study.coupling_c * h ** study.alpha
        steps = max(1, int(np.ceil(study.base.T / dt_target)))
        spec = replace(study.base, n_cells=n, steps=steps)
        report = run_single(spec, os.path.join(out_dir, f"level_n{n}"), study)
        reports.append(report)
        rows.append((lvl, n, report.h, report.dt, steps, report.gap_l2,
                     report.increment_sum,
                     report.local_energy_min if report.local_energy_min
                     is not None else float("nan"),
                     report.pressure_ratio_max,
                     report.coupling["cn_ratio"],
                     report.coupling["cn_pass"],
                     report.coupling["cnle_pass"],
                     report.coupling["cnab_dt_pass"]))
    with open(os.path.join(out_dir, "study.csv"), "w") as fh:
        fh.write(",".join(STUDY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    gaps = [r.gap_l2 for r in reports]
    eps = [max(0.0, -(r.local_energy_min or 0.0)) for r in reports]
    verdicts = {
        "gap_strictly_decreasing": all(a > b for a, b in zip(gaps, gaps[1:])),
        "local_energy_floor_nonincreasing":
            all(a >= b for a, b in zip(eps, eps[1:])),
        "increment_bound_decreasing": all(
            a.increment_sum > b.increment_sum
            for a, b in zip(reports, reports[1:])),
    }
    with open(os.path.join(out_dir, "study_verdicts.txt"), "w") as fh:
        for k, v in verdicts.items():
            fh.write(f"{k}\t{v}\n")
    return rows, verdicts


def rerender_report(traj_dir, out_dir):
    """Rebuild diagnostics from a stored trajectory dump."""
    spec, study = parse_config(os.path.join(traj_dir, "runmeta.ini"))
    datum = spec.validate()
    mesh = build_torus_mesh(spec.n_cells)
    spaces = build_spaces(mesh)
    from .steppers import DiscreteTrajectory
    with np.load(os.path.join(traj_dir, "trajectory.npz")) as data:
        trajectory = DiscreteTrajectory(
            config=spec.scheme_config(), h=spaces.h, times=data["times"],
            u=data["u"], p=data["p"], picard_iters=data["picard_iters"],
            residuals=data["residuals"])
    report = build_report(trajectory, spaces, u0_norm=datum.l2_norm(),
                          with_local_energy=spec.with_local_energy,
                          cn_threshold=spec.cn_threshold)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report.to_tab_text())
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(prog="torusns",
                                 description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single trajectory with diagnostics")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the datum seed")

    p_study = sub.add_parser("study", help="mesh refinement study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--out", required=True)
    p_study.add_argument("--levels", default=None,
                         help="comma-separated n_cells list")
    p_study.add_argument("--alpha", type=float, default=None)
    p_study.add_argument("--seed", type=int, default=None)

    p_check = sub.add_parser("check", help="structural identity suite")

    p_rep = sub.add_parser("report", help="re-render stored diagnostics")
    p_rep.add_argument("--traj", required=True,
                       help="directory holding trajectory.npz + runmeta.ini")
    p_rep.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec, _ = parse_config(args.config)
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            run_single(spec, args.out)
        elif args.command == "study":
            spec, study = parse_config(args.config)
            if study is None:
                study = StudySpec(base=spec)
            if args.levels is not None:
                study = replace(study, levels=tuple(
                    _coerce(v, int) for v in args.levels.split(",")))
            if args.alpha is not None:
                study = replace(study, alpha=args.alpha)
            if args.seed is not None:
                study = replace(study, base=replace(study.base,
                                                    seed=args.seed))
            run_study(study, args.out)
        elif args.command == "check":
            results = run_checks(verbose=True)
            if not all(r.passed for r in results):
                return EXIT_CHECK
        elif args.command == "report":
            rerender_report(args.traj, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepperError, LinearSolveError) as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"solver failure{where}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
