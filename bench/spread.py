"""Run bench/run.py over several seeds and report each metric's median and spread.

    python3 bench/spread.py --workloads density_cli circuit_sweep --seeds 10 [--json FILE]

For every end-to-end metric this prints the median of the runs, the
quartiles from ``statistics.quantiles(values, n=4)`` and the interquartile
distance as a share of the median next to the metric's bound from
BENCHMARK.json.  Runs are sequential, seeds 1..N, one fresh process each.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0)
                for seed in range(1, args.seeds + 1)]
        summary[workload] = {"correct": all(r["correct"] for r in runs), "env": runs[0]["env"],
                             "seconds": args.seconds, "metrics": {}}
        print(f"{workload}: {len(runs)} runs, all correct: {summary[workload]['correct']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload]["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {name:12s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%} (bound {bound:.0%}) {flag}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
