"""Steadiness report: run one workload K times in fresh processes.

    python3 perfbench/steadiness.py --workload paper-fresh --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --workload paper-fresh --seeds 7 --repeat 5

Runs are sequential (one process at a time) from the repository root.
For every end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the quartile spread as
a share of the median (the quantity a metric's ``bound`` in
BENCHMARK.json must cover) and max/min.  ``--repeat`` runs each seed
several times, which separates machine noise (same seed) from workload
variation (different seeds).  Exits 1 if any run failed or was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402


def run_once(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    summary = next(json.loads(l[8:]) for l in lines if l.startswith("summary "))
    result = json.loads(lines[-1])
    result["summary"] = summary
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        for _ in range(args.repeat):
            result = run_once(args.workload, seed)
            runs.append(result)
            summary = result["summary"]
            print(
                f"seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"inputs={summary['inputs_digest'][:12]} "
                f"decisions={summary['decisions_digest']} "
                f"import_s={summary['import_s']:.3f} setup_reps_s="
                + ",".join(f"{t:.3f}" for t in summary["setup_reps_s"]) + " "
                f"raw_p50_ms={summary['raw_decision_p50_ms']:.6g} "
                f"tick_p50_ms={summary['tick_p50_ms']:.4f} "
                + " ".join(
                    f"{name}={result['metrics'][name]['value']:.6g}" for name in END_TO_END
                ),
                flush=True,
            )
    print()
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds} x{args.repeat}")
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median | max/min |")
    print("|---|---|---|---|---|---|---|")
    for name, unit in END_TO_END.items():
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        print(
            f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
            f"{(q3 - q1) / med:.4f} | {max(values) / min(values):.4f} |"
        )
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
