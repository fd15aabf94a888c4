"""Run every workload over several seeds and report each metric's spread.

    python3 bench/steady.py [--seeds 1-10] [--workloads a,b] [--seconds S]
                            [--save sets.json] [--against sets.json]
    python3 bench/steady.py --trace [--seeds 3] [--workloads a,b]

Untraced: ``run.py`` is run once per workload and seed, one process at a
time.  For each end-to-end metric in ``BENCHMARK.json`` this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, marked ``ok`` when the spread is below a third
of the metric's bound (``setup_s`` is exempt).  ``--save`` writes the
values; ``--against`` compares the medians with a saved set, which must
not be worse by more than the bound.  The last line gives ``failed_frac``
over every sample run.

``--trace`` runs each workload twice on the first seed with ``--trace 1``
and checks that every exact count (calls, Picard iterations, LU fill,
artifact bytes, spans) repeats.

The exit code is 0 when every run was correct and every check passed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, EXACT, ROOT, SPEC


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    for line in proc.stdout.splitlines()[:-1]:
        if "FAILED" in line or "WARNING" in line:
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def untraced(args, workloads):
    ok = True
    attempted = failed = 0
    sets = {}
    against = json.loads(Path(args.against).read_text()) if args.against \
        else {}
    for wl in workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in seeds(args.seeds):
            res = bench_run(wl, seed, args.seconds, False)
            attempted += res["attempted"]
            failed += res["failed"]
            ok &= res["correct"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4g}" for k, v in values.items()), flush=True)
        sets[wl] = values
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med, q1, q3, sp = spread(values[name])
            steady = name == "setup_s" or sp < bound / 3
            line = (f"  {wl:16s} {name:12s} median {med:.5g} {m['unit']}  "
                    f"q1 {q1:.5g}  q3 {q3:.5g}  spread {sp:.2%}  "
                    f"bound {bound:.0%}  {'ok' if steady else 'NOT STEADY'}")
            prev = against.get(wl, {}).get(name)
            if prev:
                ratio = med / statistics.median(prev) - 1.0
                within = ratio <= bound
                line += (f"  vs saved median {ratio:+.2%} "
                         f"{'ok' if within else 'WORSE'}")
                ok &= within
            print(line, flush=True)
            ok &= steady
    if args.save:
        Path(args.save).write_text(json.dumps(sets, indent=1))
    print(f"failed_frac {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} samples)")
    return ok and failed == 0


def traced(args, workloads):
    ok = True
    seed = seeds(args.seeds)[0]
    for wl in workloads:
        a, b = (bench_run(wl, seed, args.seconds, True) for _ in range(2))
        ok &= a["correct"] and b["correct"]
        names = [m["name"] for m in SPEC["per_layer"]]
        missing = [n for n in names if n not in a["metrics"]]
        differ = [n for n in names if n.endswith(EXACT) and n not in missing
                  and a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        ok &= not missing and not differ
        print(f"{wl} seed {seed}: counts "
              f"{'repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              + (f"; missing {missing}" if missing else ""))
        for n in names:
            if n in a["metrics"]:
                print(f"  {n:40s} {a['metrics'][n]['value']:12.6g} "
                      f"{b['metrics'][n]['value']:12.6g} "
                      f"{a['metrics'][n]['unit']}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    ok = traced(args, workloads) if args.trace else untraced(args, workloads)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
