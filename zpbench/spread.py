"""Run each workload repeatedly, alternating between workloads, and print the spread.

    python3 zpbench/spread.py --runs 10 [--first-seed 1]

Round i runs every workload of BENCHMARK.json once with seed first-seed + i,
each in a fresh ``run.py`` process for the file's ``run_seconds``, so the
workloads alternate.  For every workload and
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and (Q3 - Q1) / median, then the
failed/attempted share of each run.  The last line is the raw values as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    runs = {name: [] for name in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[name].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            wall = proc.stderr.strip().splitlines()[-1].split("; ")[-1]
            print(
                f"{name:10s} seed {seed:3d}  correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}  {values}  ({wall})",
                flush=True,
            )

    print()
    print(f"{'workload':10s} {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s}")
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            print(f"{name:10s} {metric:16s} {med:10.4f} {q1:10.4f} {q3:10.4f} {(q3 - q1) / med:8.3f}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name:10s} failed share per run: {shares}, all correct: {all(r['correct'] for r in results)}")
    print(json.dumps({name: [r["metrics"] for r in results] for name, results in runs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
