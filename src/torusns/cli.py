"""Command-line front end: single runs, refinement studies, self checks.

Configuration lives in a flat INI file ([run] and optionally [study]
sections, key = value).  A run writes, into the output directory:

    summary.csv      per step: t, |u|_2, |grad u_mid|_2, |p|_2, energy residual
    report.txt       flat name<TAB>value diagnostics
    report.json      diagnostics with per-step arrays
    trajectory.npz   raw coefficient history and the datum's exact L2 norm
    runmeta.ini      echo of the spec plus version and wall time

`study` repeats a run over a list of mesh levels with the step size
slaved to the mesh size (dt = C h^alpha) and tabulates the diagnostics
per level; `report` re-renders diagnostics from a stored trajectory;
`check` runs the structural identity suite.

Exit codes: 0 success, 1 configuration error (an output directory
that cannot be written included), 2 solver failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .diagnostics import build_report
from .fespace import build_spaces
from .linsolve import LinearSolveError
from .mesh import build_torus_mesh, element_diameter
from .steppers import (ConfigError, DiscreteTrajectory, SchemeConfig,
                       StepperError, run)
from .trig import check_preset, preset_field

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
        """The scheme settings of this run: its fields of the same names,
        and N = steps."""
        return SchemeConfig(N=self.steps, **{
            f.name: getattr(self, f.name) for f in fields(SchemeConfig)
            if f.name != "N"})

    def validate(self):
        """Check the settings; builds no datum (see `datum_field`)."""
        if self.n_cells < 2:
            raise ConfigError("n_cells must be >= 2")
        if not 0 < self.cn_threshold < np.inf:
            raise ConfigError("cn_threshold must be positive and finite")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.scheme_config()
        try:
            check_preset(self.datum)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def datum_field(self):
        """The run's datum, checked to be divergence-free and mean-free."""
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

    def validate(self) -> list:
        """Check the study and return the step count of each level."""
        # study_steps divides T by coupling_c * h^alpha and rounds up
        if not 0 < self.coupling_c < np.inf:
            raise ConfigError("coupling_c must be positive and finite")
        if not np.isfinite(self.alpha):
            raise ConfigError("alpha must be finite")
        if len(self.levels) < 2:
            raise ConfigError("a study needs at least 2 levels")
        if any(n < 2 for n in self.levels):
            raise ConfigError("levels must be >= 2")
        # the verdicts compare consecutive levels, and each level has its
        # own output directory
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        if (self.strict_coupling and self.base.scheme == "CN"
                and not self.alpha > 0.5):
            raise ConfigError("strict coupling for CN requires alpha > 0.5")
        self.base.validate()
        return [study_steps(self.base.T, self.coupling_c, self.alpha,
                            element_diameter(n)) for n in self.levels]


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

#: how a config value is read as a field of each type a section sets; the
#: study's levels (a tuple) are a comma-separated list of ints
_READERS = {"int": int, "float": float, "str": str,
            "bool": lambda value: configparser.ConfigParser.BOOLEAN_STATES[
                value.strip().lower()],
            "tuple": lambda value: tuple(map(int, value.split(",")))}


def _coerce(key, value: str, type_name: str):
    """The config value of `key`, read as a field of the named type."""
    try:
        return _READERS[type_name](value)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad {key} value {value!r}") from exc


def _read_section(cls, name, values: dict) -> dict:
    """Keyword arguments of `cls` from the config section `name`: each key
    a settable field, its value read as the field's type."""
    types = {f.name: f.type for f in fields(cls) if f.type in _READERS}
    kwargs = {}
    for key, value in values.items():
        if key not in types:
            raise ConfigError(f"unknown [{name}] key: {key}")
        kwargs[key] = _coerce(key, value, types[key])
    return kwargs


def _config_text(value) -> str:
    """A settable field's value as `_READERS` reads it back."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


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
    spec = RunSpec(**_read_section(RunSpec, "run", sections["run"]))
    study = None
    if "study" in sections:
        study = StudySpec(base=spec, **_read_section(StudySpec, "study",
                                                     sections["study"]))
    return spec, study


def emit_config(spec: RunSpec, study: StudySpec | None = None,
                extra_meta: dict | None = None) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for name, section in (("run", spec), ("study", study)):
        if section is not None:
            cp[name] = {f.name: _config_text(getattr(section, f.name))
                        for f in fields(section) if f.type in _READERS}
    if extra_meta:
        cp["meta"] = {k: str(v) for k, v in extra_meta.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "%.17g" % float(x)


def write_summary_csv(path, trajectory, report) -> None:
    norms = report.norms
    columns = zip(trajectory.times[1:], norms.state_l2[1:],
                  norms.midpoint_h1_semi, norms.pressure_l2,
                  report.energy_residuals)
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for m, values in enumerate(columns, start=1):
            fh.write(",".join([str(m)] + [_fmt(v) for v in values]) + "\n")


def _write_report(spec, trajectory, spaces, out_dir):
    """Diagnostics of a trajectory, written as report.txt and report.json;
    returns the report.  A trajectory that overflowed (the unstable side
    of CNAB, say) is reported as it is, inf and nan included, and one
    line on stderr names its first step whose state is not finite."""
    finite = np.isfinite(trajectory.u).all(axis=1)
    if not finite.all():
        print(f"warning: the state is not finite from step "
              f"{np.argmin(finite)} on", file=sys.stderr)
    report = build_report(trajectory, spaces,
                          u0_norm=trajectory.u0_l2_analytic,
                          with_local_energy=spec.with_local_energy,
                          cn_threshold=spec.cn_threshold)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report.to_tab_text())
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    return report


def run_single(spec: RunSpec, out_dir, study: StudySpec | None = None,
               datum=None):
    """Execute one run and write its artifact set; returns the report.
    A study passes the `datum`, built once for all its levels; without it
    the run builds its own (`RunSpec.datum_field`)."""
    spec.validate()
    if datum is None:
        datum = spec.datum_field()
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    mesh = build_torus_mesh(spec.n_cells)
    spaces = build_spaces(mesh)
    config = spec.scheme_config()
    trajectory = run(config, spaces, datum)
    report = _write_report(spec, trajectory, spaces, out_dir)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), trajectory,
                      report)
    np.savez(os.path.join(out_dir, "trajectory.npz"),
             **{f.name: getattr(trajectory, f.name)
                for f in fields(trajectory) if f.name != "config"})
    meta = {"version": f"torusns-{__version__}",
            "wall_time_s": f"{time.time() - t0:.3f}"}
    with open(os.path.join(out_dir, "runmeta.ini"), "w") as fh:
        fh.write(emit_config(spec, study, meta))
    return report


STUDY_COLUMNS = ("level", "n_cells", "h", "dt", "steps", "gap_l2",
                 "increment_sum", "local_energy_min", "pressure_ratio_max",
                 "cn_ratio", "cn_pass", "cnle_pass", "cnab_dt_pass")


def study_steps(T: float, coupling_c: float, alpha: float, h: float) -> int:
    """Step count of a study level: the fewest steps over [0, T] whose
    size stays at most coupling_c * h^alpha.  A size that is not positive
    and finite (h^alpha under- or overflows for large |alpha|), or a count
    that overflows (a tiny coupling_c), is a ConfigError."""
    with np.errstate(over="ignore", under="ignore"):
        dt = coupling_c * np.float64(h) ** alpha
        steps = np.ceil(T / dt) if 0 < dt < np.inf else np.nan
    if not steps < np.inf:
        raise ConfigError(f"at h = {h:.6g} the step size coupling_c * "
                          f"h^alpha = {dt:.3g} gives no finite step count")
    return max(1, int(steps))


def run_study(study: StudySpec, out_dir):
    """Refinement study with dt = coupling_c * h^alpha per level.  Every
    level shares the datum's preset, seed and degree, so it is built once."""
    level_steps = study.validate()
    datum = study.base.datum_field()
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    reports = []
    for lvl, (n, steps) in enumerate(zip(study.levels, level_steps)):
        spec = replace(study.base, n_cells=n, steps=steps)
        report = run_single(spec, os.path.join(out_dir, f"level_n{n}"), study,
                            datum)
        reports.append(report)
        rows.append((lvl, n, report.h, report.dt, steps, report.gap_l2,
                     report.increment_sum,
                     report.local_energy_min if report.local_energy_min
                     is not None else float("nan"),
                     report.pressure_ratio_max,
                     report.coupling.cn_ratio,
                     report.coupling.cn_pass,
                     report.coupling.cnle_pass,
                     report.coupling.cnab_dt_pass))
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


def _load_trajectory(path, spec: RunSpec, spaces) -> DiscreteTrajectory:
    """The trajectory `run_single` stored for `spec`, the datum's exact L2
    norm included; a ConfigError if the file cannot be read, lacks an
    array (one stored before the norm was lacks it: run it again), holds
    one that is not real numbers or does not fit the spec."""
    N = spec.steps
    shapes = {"times": (N + 1,), "u": (N + 1, 3 * spaces.n_scalar),
              "p": (N, spaces.pressure.dim), "picard_iters": (N,),
              "residuals": (N,), "u0_l2_analytic": ()}
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in shapes}
    except Exception as exc:  # numpy, zipfile and zlib each raise their own
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from exc
    if any(arrays[key].shape != shape for key, shape in shapes.items()):
        raise ConfigError(f"trajectory {path} does not fit n_cells = "
                          f"{spec.n_cells} and steps = {N}")
    if any(array.dtype.kind not in "iuf" for array in arrays.values()):
        raise ConfigError(f"trajectory {path} holds an array that is not "
                          "real numbers")
    # the float the run had, so the report's arithmetic is the run's
    arrays["u0_l2_analytic"] = float(arrays["u0_l2_analytic"])
    return DiscreteTrajectory(config=spec.scheme_config(), **arrays)


def rerender_report(traj_dir, out_dir):
    """Rebuild diagnostics from a stored trajectory alone: the report
    reads the datum's norm from it, so no datum is built."""
    spec, _ = parse_config(os.path.join(traj_dir, "runmeta.ini"))
    spec.validate()
    mesh = build_torus_mesh(spec.n_cells)
    spaces = build_spaces(mesh)
    trajectory = _load_trajectory(
        os.path.join(traj_dir, "trajectory.npz"), spec, spaces)
    os.makedirs(out_dir, exist_ok=True)
    return _write_report(spec, trajectory, spaces, out_dir)


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
                study = replace(study, levels=_coerce("levels", args.levels,
                                                      "tuple"))
            if args.alpha is not None:
                study = replace(study, alpha=args.alpha)
            if args.seed is not None:
                study = replace(study, base=replace(study.base,
                                                    seed=args.seed))
            run_study(study, args.out)
        elif args.command == "check":
            # the suite's module is loaded by this command only
            from .checks import run_checks
            results = run_checks()
            if not all(r.passed for r in results):
                return EXIT_CHECK
        elif args.command == "report":
            rerender_report(args.traj, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:   # an --out that cannot be made or written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepperError, LinearSolveError) as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"solver failure{where}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
