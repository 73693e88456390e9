"""One pass of a workload in a fresh process; prints one JSON line.

Usage: worker.py ROOT WORKLOAD SEED MODE SPAWNED_AT

MODE is ``pass`` (set up, run the job, check it), ``trace`` (the same with
per-layer spans) or ``setup`` (set up only). SPAWNED_AT is the parent's
``time.monotonic()`` just before it started this process, so set-up covers
interpreter start, importing tptg and building the job's inputs
(`workloads.make_job`).

Times are reported twice: as wall time (``*_wall_s``) and in calibrated
seconds (``setup_s``, ``job_s``), wall time scaled to a fixed host speed.
The speed of the hosts this runs on swings by up to 2x within a minute (a
fixed pure-Python loop took 0.066 s to 0.135 s over one minute on a 2-vCPU
VM), so raw wall time cannot tell a 25% regression from noise. A timer
signal runs a small fixed kernel every ``SAMPLE_S`` from the start of
set-up to the end of the job. Each sample gives the host speed at that
moment, ``KERNEL_REF_S`` over the kernel's time; the samples are evenly
spaced in wall time, so a stretch of time is scaled by their mean. This
integrates speed over the stretch, so a short slow spell counts for its
length; a median of the samples would ignore it.

The kernel shares the process with tptg, so it is kept from coupling to
tptg's heap: it runs with the garbage collector off, allocates no
GC-tracked object (only floats, on int-keyed tables built at import) and
calls none of tptg's code. A slowdown of tptg, also one that allocates and
keeps many objects, therefore moves calibrated and wall time alike.
"""

import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SAMPLE_S = 0.02
#: the kernel's time on an uncontended host, so calibrated seconds are close
#: to wall seconds there
KERNEL_REF_S = 1.5e-4

_WEIGHTS = {i: 0.5 * i for i in range(256)}
_NAMES = {i: str(i) for i in range(64)}


def _kernel(n=1500):
    """Dict lookups, compares and float arithmetic; no GC-tracked allocation."""
    weights, names = _WEIGHTS, _NAMES
    total = 0.0
    for i in range(n):
        total = total * 0.999 + weights[(i * 7) & 255]
        if names[i & 63] == "7":
            total += 1.0
    return total


class HostSpeed:
    """Kernel times sampled on a timer signal while the pass runs."""

    def __init__(self):
        self.samples = []
        _kernel()  # the first call runs before the interpreter specializes it
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - begin)
        if collecting:
            gc.enable()

    def scale(self, since: int) -> float:
        """Calibration factor for the samples taken after index `since`."""
        self.sample()  # at least one sample, however short the stretch
        return statistics.fmean(KERNEL_REF_S / k for k in self.samples[since:])

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(root: str, workload: str, seed: str, mode: str, spawned_at: str) -> dict:
    speed = HostSpeed()
    import workloads

    job = workloads.make_job(workload, int(seed), Path(root))
    setup_wall_s = time.monotonic() - float(spawned_at)
    record = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * speed.scale(0)}
    if mode == "setup":
        speed.stop()
        return record
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    since = len(speed.samples)
    begin = time.perf_counter()
    job.run()
    job_wall_s = time.perf_counter() - begin
    scale = speed.scale(since)
    speed.stop()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failures, checks = job.check()
    record.update(
        job_wall_s=job_wall_s,
        job_s=job_wall_s * scale,
        peak_rss_mb=rss_kib / 1024,
        attempted=attempted,
        failures=failures,
        checks=checks,
    )
    if tracer is not None:
        record["trace"] = tracer.reduce(job_wall_s, scale)
    return record


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
