"""Steadiness check: run the benchmark twice on the same code and compare.

Usage, from the root of a checkout:

    python3 bench/steady.py

For each workload in BENCHMARK.json it makes two rounds of ten runs of
``run.py --trace 0`` (seeds 1 to 10 in both rounds, each run as long as
BENCHMARK.json's ``run_seconds``). For each end-to-end metric it reports, per
round, the median and the spread: the distance between the first and third
quartile as a share of the median. Between the rounds it reports how much
worse the second median is than the first, as a share of the first. A metric
agrees when both spreads are within the metric's bound and the two medians
differ by no more than the bound, as a share of the first.

Prints one line per run and per metric; the last line is a JSON summary.
Exits 1 if a run fails or a metric disagrees.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    values = {}  # (round, workload, metric) -> values
    for round_no in (1, 2):
        for workload in workloads:
            for seed in SEEDS:
                line = one_run(spec, workload, seed)
                shown = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
                print(f"round {round_no} {workload} seed {seed}: correct={line['correct']} "
                      f"failed={line['failed']}/{line['attempted']} {shown}", flush=True)
                for metric, entry in line["metrics"].items():
                    values.setdefault((round_no, workload, metric), []).append(entry["value"])

    summary, steady = [], True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = values[(1, workload, name)], values[(2, workload, name)]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            spreads = [spread(first), spread(second)]
            agrees = abs(m2 - m1) / m1 <= bound and max(spreads) <= bound
            steady &= agrees
            summary.append({
                "workload": workload, "metric": name, "bound": bound,
                "median": [m1, m2], "spread": spreads, "worse": worse, "agrees": agrees,
            })
            print(f"{workload:<22} {name:<12} medians {m1:.4g} / {m2:.4g} {metric['unit']}, "
                  f"spreads {spreads[0]:.3f} / {spreads[1]:.3f}, second worse by {worse:+.3f} "
                  f"(bound {bound}): {'agrees' if agrees else 'DISAGREES'}")
    print(json.dumps({"steady": steady, "seeds": list(SEEDS), "metrics": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
