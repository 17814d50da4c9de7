#!/usr/bin/env python3
"""laplasym benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
hooks installed.  ``--trace 1`` gives the per-layer metrics instead: it runs
the workload untraced for half of ``--seconds``, then traced for the other
half, and reports both goodputs as the tracing overhead.

Times are reported in reference seconds.  Shared small machines (2 vCPUs)
switch between speeds up to 2x apart, often several times a second (other
tenants on the same cores), so a fixed pure-Python calibration kernel is
timed before every op, and each op's duration is scaled by
(CAL_REF_S / mean kernel time just before and just after it) ** e, where
e is the workload's ``speed_exponent``.  Raw wall times go to the
manifest.  See README.md.
"""

import cmath
import time

T0 = time.perf_counter()


def _kernel(n: int = 700) -> complex:
    """Fixed interpreter work of the library's kind: complex math, calls, dict stores."""
    s = 0j
    z = cmath.exp(0.3j)
    table = {}
    for k in range(n):
        w = cmath.exp(z * ((k & 63) * 1e-2)) / (1.0 + k)
        s += w * z
        table[k & 127] = w
        if abs(s) > 1e6:
            s *= 1e-6
    return s


def kernel_time(repeats: int = 3) -> float:
    """Fastest of ``repeats`` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


KERNEL_AT_START = kernel_time()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402  (imports laplasym from this checkout's src/)

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
CAL_REF_S = 0.27e-3  # kernel time that defines one reference second (Xeon, 2 vCPU, fast state)


class Speed:
    """Calibration log: (time, kernel seconds), taken between ops."""

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.measure()

    def measure(self) -> float:
        k = kernel_time()
        self.times.append(time.perf_counter())
        self.kernel.append(k)
        return k

    def scale(self, start: float, seconds: float) -> float:
        """Reference seconds of an op: kernel times just before and just after it."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, start + seconds)
        around = [self.kernel[max(i, 0)], self.kernel[min(j, len(self.kernel) - 1)]]
        return seconds * (CAL_REF_S / statistics.fmean(around)) ** self.exponent


class Loop:
    """Totals of a closed loop of passes; durations in reference seconds."""

    def __init__(self) -> None:
        self.passes = 0
        self.ops = 0
        self.raw_s = 0.0
        self.samples: list[float] = []
        self.pass_s: list[float] = []
        self.failures: Counter = Counter()
        self.wrong = 0

    @property
    def elapsed(self) -> float:
        return sum(self.pass_s)

    def failed(self) -> int:
        return sum(self.failures.values())

    def goodput(self) -> float:
        return (self.ops - self.failed()) / self.elapsed


def run_loop(wl, speed: Speed, seconds: float, max_passes, fixed_inputs: bool) -> Loop:
    """Whole input cycles until ``seconds`` of timed work; ``check`` must follow."""
    loop = Loop()
    wl.reset_outputs()
    while True:
        res = wl.run_pass(0 if fixed_inputs else loop.passes, speed.measure)
        speed.measure()
        scaled = [speed.scale(start, dur) for start, dur in res.samples]
        loop.passes += 1
        loop.ops += res.ops
        loop.raw_s += sum(dur for _start, dur in res.samples)
        loop.samples += scaled
        loop.pass_s.append(sum(scaled))
        loop.failures += res.failures
        if max_passes and loop.passes >= max_passes:
            break
        if loop.raw_s >= seconds and (fixed_inputs or loop.passes % wl.passes_per_cycle == 0):
            break
    return loop


def check(wl, loop: Loop) -> None:
    """Grade the loop's outputs (untimed, and outside any traced phase)."""
    result = wl.check()
    loop.failures += result.failures
    loop.wrong = result.wrong


def measure_setup(args, speed: Speed, runs: int) -> list[tuple[float, float]]:
    """(raw, reference) seconds of set-up in ``runs`` fresh processes.

    Set-up runs from the spawn to the end of the workload's set-up; the
    kernel is timed just before the spawn, and by the child when it starts
    and when its set-up ends.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(runs):
        before = speed.measure()
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        end, *kernel = map(float, proc.stdout.split()[-3:])
        raw = end - start
        out.append((raw, raw * CAL_REF_S / statistics.fmean([before, *kernel])))
    return out


def git_sha() -> str | None:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "laplasym": workloads.laplasym.__version__,
    }


def percentile_ms(samples: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method) in ms."""
    if len(samples) < 2:
        return 1e3 * samples[0]
    return 1e3 * statistics.quantiles(samples, n=100)[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one pass over a slice of the workload, one set-up run (for the tests)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    wl = workloads.make(args.workload, tiny=args.tiny)
    wl.setup(args.seed)
    if args.setup_only:
        print(time.monotonic(), KERNEL_AT_START, kernel_time())
        return 0
    main_setup_s = time.perf_counter() - T0
    max_passes = 1 if args.tiny else None
    speed = Speed(wl.speed_exponent)

    absent: dict[str, str] = {}
    setup_runs = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        # Both phases repeat the first pass's inputs, so per-pass counts
        # do not depend on how many passes fit in the time.
        base = run_loop(wl, speed, args.seconds / 2, max_passes, fixed_inputs=True)
        check(wl, base)
        tracer = Tracer()
        tracer.install()
        if hasattr(wl, "instrument"):
            wl.instrument(tracer)
        try:
            loop = run_loop(wl, speed, args.seconds / 2, max_passes, fixed_inputs=True)
        finally:
            tracer.uninstall()
        metrics, absent = layer_metrics(tracer, loop.passes)
        # Spans are timed raw; put them in reference seconds with the phase's mean factor.
        for m in metrics.values():
            if m["unit"] == "s/pass":
                m["value"] *= loop.elapsed / loop.raw_s
        check(wl, loop)
        runs = [base, loop]
        if args.workload == "figures":
            # One pass of the same grid through run_sweep(cfg, jobs=2), untraced.
            jobs2 = workloads.Figures(jobs=2, tiny=args.tiny)
            jobs2.setup(args.seed)
            runs.append(run_loop(jobs2, speed, 0.0, 1, fixed_inputs=True))
            check(jobs2, runs[-1])
            metrics["sweep.jobs2_speedup"] = metric(statistics.median(base.pass_s) / runs[-1].elapsed, "ratio")
        else:
            metrics["sweep.jobs2_speedup"] = metric(0, "ratio")
            absent["sweep.jobs2_speedup"] = "measured on figures only"
        metrics["trace.goodput_per_s"] = metric(loop.goodput(), "1/s")
        metrics["trace.untraced_goodput_per_s"] = metric(base.goodput(), "1/s")
        metrics["trace.overhead_pct"] = metric(100.0 * (base.goodput() / loop.goodput() - 1.0), "%")
        tracer.write(str(workloads.OUT / f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed, "passes": loop.passes})
    else:
        loop = run_loop(wl, speed, args.seconds, max_passes, fixed_inputs=False)
        check(wl, loop)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_runs = measure_setup(args, speed, 1 if args.tiny else SETUP_RUNS)
        metrics = {
            "setup_s": metric(statistics.median(ref for _raw, ref in setup_runs), "s"),
            "goodput_per_s": metric(loop.goodput(), "1/s"),
            "op_ms_p50": metric(percentile_ms(loop.samples, 50), "ms"),
            "op_ms_p90": metric(percentile_ms(loop.samples, 90), "ms"),
            "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        }
        runs = [loop]

    # Calls left out of the timed ops for a known defect, made once each, untimed.
    probe = wl.probe_known_defects() if hasattr(wl, "probe_known_defects") else workloads.CheckResult()

    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed() for r in runs)
    failures = sum((r.failures for r in runs), Counter())
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": wl.seed_used,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "run_seconds": args.seconds,
        "passes": [r.passes for r in runs],
        "timed_raw_s": [r.raw_s for r in runs],
        "timed_reference_s": [r.elapsed for r in runs],
        "raw_goodput_per_s": [(r.ops - r.failed()) / r.raw_s for r in runs],
        "kernel_s": {"reference": CAL_REF_S, "median": statistics.median(speed.kernel),
                     "min": min(speed.kernel), "max": max(speed.kernel), "count": len(speed.kernel)},
        "op_samples": len(loop.samples),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": dict(failures),
        "known_defect_probe": dict(probe.failures),
        "main_process_setup_raw_s": main_setup_s,
        "setup_runs_raw_and_reference_s": setup_runs,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **versions(),
    }
    os.makedirs(workloads.OUT, exist_ok=True)
    with open(workloads.OUT / f"manifest-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}"
              + (f"  (absent: {absent[name]})" if name in absent else ""))
    print(f"{args.workload}  error_rate = {manifest['error_rate']:.6g} ratio ({failed}/{attempted} ops failed)")
    for label, count in sorted(failures.items()):
        print(f"{args.workload}  failed: {label}: {count}")
    for label, count in sorted(probe.failures.items()):
        print(f"{args.workload}  known defect probe, untimed: {label}: {count}")
    print("manifest: " + json.dumps(manifest))
    print(json.dumps({
        "correct": probe.wrong == 0 and all(r.wrong == 0 for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
