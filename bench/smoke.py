"""Smoke test of the benchmark itself, on n_cells=2 and a few steps.

    python3 bench/smoke.py

Checks that
  * every metric in BENCHMARK.json is printed by name with its unit, for
    every workload, traced and untraced;
  * a deliberately corrupted output makes its sample fail, and a physics
    value off its reference fails the reference check;
  * the seed given to the benchmark reaches the datum.
Exits 0 when all checks pass.  Takes about a minute.
"""

import dataclasses
import json
import shutil
import sys

import run as bench

SMALL = {
    "cn3-picard": dict(n_cells=2, steps=2),
    "cnab-explicit": dict(n_cells=2, steps=4, T=0.0625),
    "report-rerender": dict(n_cells=2, steps=4, T=0.0625),
}

failures = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        failures.append(message)


def small(name):
    wl = bench.WORKLOADS[name]
    # a new name, so the stored full-size references do not apply
    return dataclasses.replace(wl, name=f"smoke-{name}",
                               config=dict(wl.config, **SMALL[name]))


def corrupt_first_digit(path):
    def corrupt(out):
        target = out / path
        text = target.read_text()
        i = next(i for i, ch in enumerate(text) if ch in "123456789")
        target.write_text(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
    return corrupt


def corrupt_npz_residuals(out):
    path = out / "trajectory.npz"
    with bench.np.load(path) as traj:
        arrays = dict(traj)
    arrays["residuals"] = arrays["residuals"] + 1e-3
    bench.np.savez(path, **arrays)


def check_metrics_printed():
    for name in bench.WORKLOADS:
        for trace in (False, True):
            result, lines = bench.run(small(name), seed=3, seconds=0,
                                      trace=trace)
            listed = bench.SPEC["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in listed
                       if result["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]
                       or not any(line.startswith(f"{m['name']} ")
                                  and line.endswith(f" {m['unit']}")
                                  for line in lines)]
            expect(result["correct"] and not missing,
                   f"{name} trace={int(trace)}: correct, all "
                   f"{len(listed)} metrics printed with units"
                   + (f" (missing {missing})" if missing else ""))


def check_corruption_fails():
    for name, what, corrupt in (
            ("cn3-picard", "report.json", corrupt_first_digit("report.json")),
            ("cnab-explicit", "summary.csv",
             corrupt_first_digit("summary.csv")),
            ("cnab-explicit", "trajectory.npz", corrupt_npz_residuals),
            ("report-rerender", "report.txt",
             corrupt_first_digit("report.txt"))):
        result, _ = bench.run(small(name), seed=3, seconds=0, trace=False,
                              corrupt=corrupt)
        expect(not result["correct"]
               and result["failed"] == result["attempted"],
               f"{name}: corrupted {what} fails every sample")


def run_small(wl, seed, work):
    config = work / f"seed{seed}.ini"
    bench.write_config(wl, seed, config)
    out = work / f"seed{seed}"
    _, _, code = bench.spawn(["run", "--config", str(config), "--out",
                              str(out)], work / f"seed{seed}.json", False,
                             work / f"seed{seed}.log")
    expect(code == 0, f"{wl.name} seed {seed} exits 0")
    return out


def check_reference_and_seed():
    sys.path.insert(0, str(bench.SRC))
    from torusns.trig import preset_field

    wl = small("cn3-picard")
    work = bench.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        norms = {}
        for seed in (1, 2):
            out = run_small(wl, seed, work)
            report = json.loads((out / "report.json").read_text())
            norms[seed] = report["u0_l2_analytic"]
            expect(norms[seed] == preset_field("random-trig", seed).l2_norm(),
                   f"seed {seed} reaches the random-trig datum")
        expect(norms[1] != norms[2], "different seeds give different data")

        values = bench.physics_values(report, bench.read_summary(
            out / "summary.csv"))
        refs = {wl.name: {"2": values}}
        expect(bench.check_outputs(wl, 2, out, refs) == [],
               "outputs match their own reference")
        off = dict(values, gap_l2=values["gap_l2"] * (1 + 1e-6))
        problems = bench.check_outputs(wl, 2, out, {wl.name: {"2": off}})
        expect(any(p.startswith("gap_l2") for p in problems),
               "a value 1e-6 off its reference fails")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    check_metrics_printed()
    check_corruption_fails()
    check_reference_and_seed()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
