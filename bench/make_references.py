"""Regenerate ``references.json``: per-workload, per-seed physics values.

    python3 bench/make_references.py --seeds 0-31 [--jobs 2] [--workloads a,b]

Runs ``torusns run`` once per workload and seed with the code in ``src/``
and stores the scalars ``run.physics_values`` extracts (summary.csv
column statistics, gap_l2, increment_sum, pressure_ratio_max, initial
norms, local-energy values).  Every run must pass the identity and
consistency checks first.  ``run.py`` then requires later code to match
these values to within ``REFERENCE_RTOL``; regenerate them only from a
commit whose numbers are known to be right.
"""

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run as bench


def reference(workload, seed):
    work = bench.WORK / "references" / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.ini"
        bench.write_config(workload, seed, config)
        out = work / "out"
        _, _, code = bench.spawn(
            ["run", "--config", str(config), "--out", str(out)],
            work / "record.json", False, work / "log.txt")
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit {code}")
        problems = bench.check_outputs(workload, seed, out, {})
        if problems:
            raise SystemExit(f"{workload.name} seed {seed}: {problems}")
        report = json.loads((out / "report.json").read_text())
        return bench.physics_values(report, bench.read_summary(
            out / "summary.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-31",
                    help="inclusive range lo-hi")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    jobs = [(bench.WORKLOADS[w], s) for w in args.workloads.split(",")
            for s in range(lo, hi + 1)]
    with ThreadPoolExecutor(args.jobs) as pool:
        values = list(pool.map(lambda job: reference(*job), jobs))
    refs = bench.load_references()
    for (workload, seed), vals in zip(jobs, values):
        refs.setdefault(workload.name, {})[str(seed)] = vals
    refs = {w: dict(sorted(r.items(), key=lambda kv: int(kv[0])))
            for w, r in sorted(refs.items())}
    bench.REFERENCES.write_text(json.dumps(refs, indent=0) + "\n")
    print(f"wrote {sum(len(r) for r in refs.values())} references to "
          f"{bench.REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()
