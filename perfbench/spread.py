"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (distance between the first and third quartile
over the median), for times also as measured, before scaling by host speed.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        [--seeds 1,2,...] [--seconds S]

Runs one after another, never in parallel, and writes every run's result
line to .perfbench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

from stats import median, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    worst = 0.0
    for workload in args.workload:
        runs = []
        log = os.path.join(ROOT, ".perfbench_out", f"spread-{workload}.jsonl")
        for seed in seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            res = json.loads(line)
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            saved = os.path.join(ROOT, ".perfbench_out", f"result-{workload}-seed{seed}-trace0.json")
            with open(saved, encoding="utf-8") as fh:
                notes = json.load(fh)["notes"]
            runs.append({**res["metrics"], **{k: {"value": v} for k, v in notes.items()}})
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- over a third of the bound"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:18s} median {median(values):12.6g}  spread {spread:6.3f}  bound {bound}{flag}")
            if "raw_" + name in runs[0]:
                raw = [r["raw_" + name]["value"] for r in runs]
                print(f"  {'  as measured':18s} median {median(raw):12.6g}  spread {quartile_spread(raw):6.3f}")
    print(f"largest spread / bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
