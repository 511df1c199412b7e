"""Run one workload and print its metrics as a JSON object on the last line.

    python3 perfbench/run.py --workload transforms --seed 1 --seconds 17 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time over fresh
interpreters, then jobs timed in reference seconds for ``--seconds``.
``--trace 1`` reports the per-layer metrics: an untraced phase, a traced
phase and two jobs with two worker threads.  Every job's outputs are checked
against the oracles outside the timed calls.  Progress and raw timings go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4
MIN_JOBS = 3
PROBE_TIMEOUT_S = 150


def _log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed; failures outside the known faults
    make the run incorrect."""

    def __init__(self, workload):
        self.known = workload.known_faults
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def add(self, checks):
        for label, c in checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                if label not in self.known:
                    self.unexpected.append(f"{label}: {'; '.join(c.failures())}")


def setup_seconds(name, seed, gauge, k_ref):
    """Reference and raw seconds of SETUP_PROBES cold starts.

    Each is timed from a fresh interpreter's start to the end of its first
    job, and scaled by the kernel gauged before and after it; the gauge
    after one probe is the gauge before the next.
    """
    env = dict(os.environ, AFFINE_RICCATI_THREADS="1")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    probes = []
    before = gauge()
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw = float(proc.stdout.split()[-1]) - start
        after = gauge()
        probes.append((raw * k_ref / (0.5 * (before + after)), raw))
        before = after
    return probes


def timed_phase(workload, clock, tally, seconds, each=None):
    """Run whole jobs for at least ``seconds`` (and MIN_JOBS jobs).

    Returns the reference and raw seconds of each job.  ``each(ref, raw)``
    runs right after a job, before its outputs are checked.
    """
    refs, raws = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(refs) < MIN_JOBS:
        out, ref, raw = clock.time(workload.job)
        refs.append(ref)
        raws.append(raw)
        if each is not None:
            each(ref, raw)
        tally.add(workload.check(out))
        del out
    return refs, raws


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["transforms", "verdicts", "mc-jumps", "mc-diffusion"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=17.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "affine_riccati" / "__init__.py").is_file():
        _log(f"no affine_riccati sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["AFFINE_RICCATI_THREADS"] = "1"
    # The kernel gauges the CPU it runs on; pin this process and its set-up
    # probes to one CPU so that kernel and program share it.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    import oracles
    import refkernel
    import workloads

    clock = refkernel.ReferenceClock()
    metrics = {}
    if not args.trace:
        probes = setup_seconds(args.workload, args.seed, refkernel.gauge, refkernel.K_REF)
        _log("set-up raw s " + " ".join(f"{raw:.3f}" for _, raw in probes))
        metrics["setup_s"] = metric(statistics.median(p[0] for p in probes), "s")

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.expect()
    tally = Tally(workload)
    warm = workload.check(workload.job())
    tally.add(warm)
    blind = oracles.self_test([c for _, c in warm])
    for label in blind:
        _log(f"self-test: oracle accepts a perturbed value: {label}")

    if not args.trace:
        refs, raws = timed_phase(workload, clock, tally, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["job_ms"] = metric(1e3 * statistics.median(refs), "ms")
        metrics["units_per_s"] = metric(workload.units * len(refs) / sum(refs), "1/s")
        metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    else:
        import tracing

        refs, raws = timed_phase(workload, clock, tally, 0.4 * args.seconds)
        tracer, totals = tracing.Tracer(), tracing.LayerTotals()

        def record(ref, raw):
            totals.add(tracer, ref / raw)
            tracer.reset()

        tracer.install()
        try:
            traced, _ = timed_phase(workload, clock, tally, 0.4 * args.seconds, each=record)
        finally:
            tracer.uninstall()
        # two worker threads on all CPUs; the ensembles must stay bit-identical
        os.environ["AFFINE_RICCATI_THREADS"] = "2"
        os.sched_setaffinity(0, cpus)
        try:
            threaded = []
            for _ in range(2):
                out, ref, _ = clock.time(workload.job)
                threaded.append(ref)
                tally.add(workload.check(out))
                del out
        finally:
            os.environ["AFFINE_RICCATI_THREADS"] = "1"
        one = statistics.median(refs)
        metrics = totals.metrics(thread_speedup=one / statistics.median(threaded),
                                 overhead_pct=100.0 * (statistics.median(traced) / one - 1.0))
    _log(f"{len(refs)} timed jobs, raw median {1e3 * statistics.median(raws):.2f} ms, "
         f"kernel median {1e3 * statistics.median(clock.kernel_times):.2f} ms")
    for line in tally.unexpected[:20]:
        _log(f"FAILED {line}")

    print(json.dumps({
        "correct": not tally.unexpected and not blind,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
