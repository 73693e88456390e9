"""tptg benchmark: what a user of the library waits for and pays for.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py          # every workload, untraced then traced

Each workload is a fixed job (see ``workloads.py``). A run repeats passes of
the job, one after another (closed loop, one client), until ``--seconds``
have gone by. Every pass runs in its own fresh single-threaded process, so no
module-level cache carries over between passes, and every pass is checked
against its reference.

With ``--trace 0`` a run reports the end-to-end metrics, as medians over the
passes:

- ``job_s``: time of one pass of the job;
- ``setup_s``: time from starting the pass's process until the job starts
  (interpreter start, importing tptg, building the job's inputs); processes
  that only set up are added until there are ``MIN_SETUP_SAMPLES``, because
  a slow job leaves too few passes for a steady median;
- ``peak_rss_mb``: peak resident set size of the pass's process.

Both times are in calibrated seconds: wall time scaled to a fixed host
speed, measured alongside the pass (see ``worker.py``). The report lines
give the plain wall times too.

With ``--trace 1`` it alternates untraced and traced passes (``spans.py``),
two of each at least, and reports the per-layer metrics, medians over the
traced passes, plus the tracing overhead (median traced minus median
untraced ``job_s``; marked unresolved when it is within the range of the
untraced passes) and whether every count repeated exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a query counts as
failed when it raises, exits non-zero, does not converge, fails its
certificate or differs from its reference. The lines before it give every
metric with its unit, the tail and sample count of ``job_s``, the result of
each reference check and every failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTS, STAGES
from workloads import SWEEPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: a run must end within 180 s; passes are cut off here
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 15

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = (*STAGES, "traced_other_s", "untraced_s")
PER_LAYER = {
    **dict.fromkeys(STAGE_METRICS, "s"),
    **{name: "ratio" if name.endswith("yield") else "count" for name in COUNTS},
    "trace_overhead_s": "s",
    "trace.counts_mismatched": "count",
    "trace.missing": "count",
}


class BenchError(RuntimeError):
    pass


class Run:
    """Passes of one workload under one seed, all within one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, mode: str) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"{self.workload}: deadline of {DEADLINE_S:.0f} s reached")
        worker = [sys.executable, str(BENCH / "worker.py"), str(ROOT), self.workload, str(self.seed), mode]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                worker + [repr(spawned)], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: a {mode} pass did not end before the deadline") from None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload}: {mode} process exited with {proc.returncode}")
        return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return "max", ordered[-1]
    return f"p{100 * k // len(ordered)}", ordered[k - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    start = time.monotonic()
    plain, traced = [], []
    if trace:
        # two passes of each kind at least: counts are compared between
        # traced passes, and the overhead needs the untraced spread
        while len(traced) < 2 or time.monotonic() - start < seconds:
            plain.append(run.spawn("pass"))
            traced.append(run.spawn("trace"))
    else:
        while not plain or time.monotonic() - start < seconds:
            plain.append(run.spawn("pass"))
    setups = [p["setup_s"] for p in plain]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run.spawn("setup")["setup_s"])
    passes = plain + traced
    return {
        "workload": workload,
        "seed": seed,
        "elapsed_s": time.monotonic() - start,
        "plain": plain,
        "traced": traced,
        "setups": setups,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(min(len(p["failures"]), p["attempted"]) for p in passes),
        "checks": {name: sum(p["checks"][name] for p in passes) for name in passes[0]["checks"]},
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "passes": len(passes),
    }


def end_to_end(result: dict) -> dict:
    plain = result["plain"]
    return {
        "job_s": _median([p["job_s"] for p in plain]),
        "setup_s": _median(result["setups"]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }


def per_layer(result: dict) -> tuple[dict, list[str], list[str]]:
    """Medians of the per-layer metrics over the traced passes, the counts
    that differ between traced passes, and the trace warnings."""
    traces = [p["trace"] for p in result["traced"]]
    metrics = {}
    for name in STAGE_METRICS:
        metrics[name] = _median([t["stages"][name] for t in traces])
    first = traces[0]["counts"]
    differing = [
        name for name in COUNTS
        if any(t["counts"][name] != first[name] for t in traces[1:])
    ]
    for name in COUNTS:
        metrics[name] = first[name]
    traced_job = _median([p["job_s"] for p in result["traced"]])
    metrics["trace_overhead_s"] = traced_job - _median([p["job_s"] for p in result["plain"]])
    missing = sorted({m for t in traces for m in t["missing"]})
    metrics["trace.counts_mismatched"] = len(differing)
    metrics["trace.missing"] = len(missing)
    warnings = [f"missing from tptg, not traced: {name}" for name in missing]
    warnings += sorted({e for t in traces for e in t["hook_errors"]})
    return metrics, differing, warnings


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable record of a run; return the result line."""
    workload = result["workload"]
    print(f"# {workload} seed={result['seed']} trace={int(trace)}: "
          f"{result['passes']} passes in {result['elapsed_s']:.1f} s")
    if trace:
        metrics, differing, warnings = per_layer(result)
        units = PER_LAYER
        traced_jobs = [p["job_s"] for p in result["traced"]]
        plain_jobs = [p["job_s"] for p in result["plain"]]
        resolved = abs(metrics["trace_overhead_s"]) > max(plain_jobs) - min(plain_jobs)
        print(f"  job_s median: traced {_median(traced_jobs):.4f} s (n={len(traced_jobs)}), "
              f"untraced {_median(plain_jobs):.4f} s (n={len(plain_jobs)}, "
              f"range {min(plain_jobs):.4f}-{max(plain_jobs):.4f} s); overhead "
              + ("resolved" if resolved else "unresolved: within the untraced range"))
        for warning in warnings:
            print(f"  warning: {warning}")
        for name in differing:
            print(f"  count differs between traced passes: {name}")
        top = {}
        for t in result["traced"]:
            for name, value in t["trace"]["self_by_function"].items():
                top.setdefault(name, []).append(value)
        ranked = sorted(top.items(), key=lambda item: -_median(item[1]))[:8]
        print("  self time by function: " + ", ".join(f"{n} {_median(v):.3f} s" for n, v in ranked))
    else:
        metrics = end_to_end(result)
        units = END_TO_END
        jobs = [p["job_s"] for p in result["plain"]]
        label, value = _tail(jobs)
        print(f"  job_s tail: {label} {value:.4f} s over n={len(jobs)} passes; "
              f"setup_s over n={len(result['setups'])} processes")
        walls = [p["job_wall_s"] for p in result["plain"]]
        label, value = _tail(walls)
        setup_walls = [p["setup_wall_s"] for p in result["plain"]]
        print(f"  wall time: job {_median(walls):.4f} s (median; {label} {value:.4f} s), "
              f"set-up {_median(setup_walls):.4f} s (median)")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_ratio                     {failed}/{attempted} = {failed / attempted:.4g}")
    for name, passed in result["checks"].items():
        verdict = "pass" if passed == result["passes"] else "FAIL"
        print(f"  check {verdict}: {name} ({passed}/{result['passes']} passes)")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    return {
        "correct": failed == 0 and all(n == result["passes"] for n in result["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _preflight():
    needed = [ROOT / "src" / "tptg" / "__init__.py"]
    needed += [ROOT / "results" / csv for csv, _ in SWEEPS.values()]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        raise BenchError("not a tptg checkout, missing: " + ", ".join(absent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _preflight()
        if args.workload is not None:
            runs = [(args.workload, bool(args.trace))]
        else:
            runs = [(w, t) for w in WORKLOADS for t in (False, True)]
        for workload, trace in runs:
            line = report(measure(workload, args.seed, args.seconds, trace), trace)
            print(json.dumps(line), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
