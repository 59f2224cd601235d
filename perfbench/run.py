#!/usr/bin/env python3
"""Run one workload of the cubicfano benchmark in this fresh interpreter.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` next to this directory.  With ``--trace 0`` the last line of output
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics.  The
line before it is a JSON report: the environment, every failed instance, the
time of every instance, and the figures ``BENCHMARK.json`` does not list.  A
wrong answer makes the run exit with code 1.
"""

from __future__ import annotations

import os

# before numpy is imported: one thread for every BLAS it may load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

P90_MIN_INSTANCES = 100
# set-ups per run, each in a fresh interpreter; ``setup_s`` is their median
SETUP_RUNS = {"census": 2, "group-law": 3, "rational": 5}

# A virtual machine on a shared host changes speed, by up to 1.75x on the
# 2-vCPU machine the benchmark was tuned on, in stretches from under a
# second to many minutes.  A fixed pure-Python loop slows and speeds up with
# it.  So the loop is timed every PROBE_INTERVAL_S while the program runs,
# and each time the benchmark gates is scaled to one reference speed:
# multiplied by REFERENCE_S over the loop's mean time in the same stretch.
# REFERENCE_S is about the loop's time on that machine, so scaled times
# there read close to wall times.
PROBE_INTERVAL_S = 0.05
REFERENCE_S = 0.0004


def probe_loop() -> float:
    """Wall time of one fixed pure-Python loop of integer and dict work.

    Of the loops tried (integer arithmetic alone, and with random reads of
    8 or 64 MB), this one tracked the workloads best: over passes of 4-7 s,
    scaling by it cut the coefficient of variation of pass times from 0.11
    to 0.02 on census and 0.03 on group-law.
    """
    t0 = time.perf_counter()
    x, table = 0, {}
    for i in range(1500):
        x = (x * 31 + i) % 1000003
        table[x & 1023] = table.get(i & 1023, 0) + 1
    return time.perf_counter() - t0


class SpeedProbe:
    """Times ``probe_loop`` every PROBE_INTERVAL_S of wall time while active.

    The loop runs in a SIGALRM handler, so in the main thread between the
    program's own bytecodes, on the CPU and in the stretch the program runs
    in.  A few samples are also taken on entry and exit, so that a short
    stretch has some.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples = [probe_loop() for _ in range(3)]
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe_loop()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [probe_loop() for _ in range(3)]

    def scale(self) -> float:
        """Factor that brings a time of this stretch to the reference speed.

        The mean of the middle 80% of samples: the mean follows the share of
        time spent in slow stretches, and the trim drops loops that an
        interrupt or a page fault lengthened.
        """
        xs = sorted(self.samples)
        cut = len(xs) // 10
        return REFERENCE_S / statistics.mean(xs[cut:len(xs) - cut])


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import sympy

    from cubicfano import kernels

    return {
        "backend": kernels.BACKEND,
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "commit": git_commit(),
    }


def run_pass(instances, ledger: list) -> list[tuple[float, bool]]:
    """Run every instance once: its wall time and whether it finished.

    Each failure is logged in ``ledger``.
    """
    from workloads import TYPED_REFUSALS, CheckFailed

    out = []
    for inst in instances:
        t0 = time.perf_counter()
        try:
            inst.run()
        except CheckFailed:
            raise
        except Exception as exc:  # every program error is data for the ledger
            name = type(exc).__name__
            ledger.append({
                **inst.label(),
                "error": name,
                "message": (str(exc).splitlines() or [""])[0],
                "typed_refusal": name in TYPED_REFUSALS,
            })
            out.append((time.perf_counter() - t0, False))
            continue
        out.append((time.perf_counter() - t0, True))
    return out


def measure(instances, seconds: float, ledger: list) -> tuple[list[list[tuple[float, bool]]], list[float]]:
    """Whole passes over the list, at least one, until ``seconds`` have gone
    by; and the scale factor of each pass."""
    passes, scales, wall = [], [], 0.0
    while not passes or wall < seconds:
        with SpeedProbe() as probe:
            passes.append(run_pass(instances, ledger))
        scales.append(probe.scale())
        wall += sum(t for t, _ in passes[-1])
    return passes, scales


def set_up(workload: str, tiny: bool, tracer=None) -> tuple[float, float, list]:
    """Import the package and warm up one instance of each kind: (wall
    seconds, their scale factor, warm-up failures).

    A ``tracer`` is installed for the warm-up only.
    """
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import workloads  # imports cubicfano

        warm_ledger: list = []
        if tracer:
            tracer.install()
        try:
            run_pass(workloads.warmups(workload, tiny), warm_ledger)
        finally:
            if tracer:
                tracer.uninstall()
        seconds = time.perf_counter() - t0
    return seconds, probe.scale(), warm_ledger


def set_up_in_child(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["scale"]


def fail(message: str, report: dict) -> None:
    print(json.dumps(report, default=str))
    print(f"benchmark failure: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(SETUP_RUNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest lists, for the self-check")
    ap.add_argument("--setup-only", action="store_true", help="time one set-up, print it and exit")
    args = ap.parse_args()

    if not (ROOT / "src" / "cubicfano" / "__init__.py").is_file():
        sys.exit(f"no cubicfano package under {ROOT / 'src'}")
    if args.setup_only:
        seconds, factor, _ = set_up(args.workload, args.tiny)
        print(json.dumps({"setup_s": seconds, "scale": factor}))
        return

    # the other set-ups of a timed run go first, one at a time, so that no
    # two hold the field tables at once
    children = 0 if args.trace else SETUP_RUNS[args.workload] - 1
    setups = [set_up_in_child(args) for _ in range(children)]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny}
    setup_tracer = None
    if args.trace:
        import tracing

        setup_tracer = tracing.Tracer()
    try:
        seconds, factor, warm_ledger = set_up(args.workload, args.tiny, setup_tracer)
    except Exception as exc:  # a rejected warm-up answer, or a package that does not import
        fail(f"set-up failed: {type(exc).__name__}: {exc}", report)
    setups.append((seconds, factor))

    import cubicfano
    import tracing
    import workloads
    from workloads import CheckFailed

    if Path(cubicfano.__file__).resolve().parent != ROOT / "src" / "cubicfano":
        sys.exit(f"cubicfano imported from {cubicfano.__file__}, not from this checkout")

    instances = workloads.measured(args.workload, args.seed, args.tiny)
    ledger: list = []
    try:
        passes, scales = measure(instances, args.seconds, ledger)
    except CheckFailed as exc:
        fail(f"answer rejected: {exc}", report)
    leftover = tracing.installed_wrappers()

    runs = [run for p in passes for run in p]
    times = [t if ok else math.inf for t, ok in runs]
    attempted = len(runs)
    failed = sum(1 for _, ok in runs if not ok)
    # every pass at the reference speed
    scaled_s = sum(t * f for p, f in zip(passes, scales) for t, _ in p)
    p50 = statistics.median(times)
    report.update({
        "environment": environment(),
        "setup_wall_s": [t for t, _ in setups],
        "setup_scales": [f for _, f in setups],
        "pass_scales": scales,
        "passes": len(passes),
        "instances": attempted,
        "scaled_s": scaled_s,
        "failed_frac": failed / attempted,
        "instance_s_p50": None if math.isinf(p50) else p50,
        "typed_refusals": sum(1 for e in ledger if e["typed_refusal"]),
        "internal_errors": sum(1 for e in ledger if not e["typed_refusal"]),
        "failures": ledger,
        "warmup_failures": warm_ledger,
        "instance_s": [[i.kind, i.q, i.seed, None if math.isinf(t) else t]
                       for i, t in zip(instances * len(passes), times)],
        "wrappers_in_timed_pass": leftover,
    })
    if attempted >= P90_MIN_INSTANCES:
        p90 = statistics.quantiles(times, n=10)[-1]
        report["instance_s_p90"] = None if math.isinf(p90) else p90
    if leftover:
        fail(f"tracing wrappers present in the timed pass: {leftover}", report)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(t * f for t, f in setups), "s"),
            "solved_per_s": ((attempted - failed) / scaled_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        run_tracer = tracing.Tracer()
        run_tracer.install()
        traced_ledger: list = []
        try:
            with SpeedProbe() as probe:
                traced = run_pass(instances * len(passes), traced_ledger)
        except CheckFailed as exc:
            fail(f"answer rejected in the traced pass: {exc}", report)
        finally:
            run_tracer.uninstall()
        report["wrappers_after_uninstall"] = tracing.installed_wrappers()
        if report["wrappers_after_uninstall"]:
            fail("the traced run left wrappers installed", report)
        if len(traced_ledger) != len(ledger):
            fail("the traced pass failed on other instances than the untraced one", report)
        metrics = tracing.layer_metrics(setup_tracer, run_tracer)
        # both sides at the reference speed, so that a change of the
        # machine's speed between them does not read as overhead
        traced_s = sum(t for t, _ in traced) * probe.scale()
        metrics["trace.overhead_s"] = (traced_s - scaled_s, "s")
        report["traced_s"] = traced_s
        report["untraced_s"] = scaled_s

    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
