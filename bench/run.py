"""Seeded benchmark of chordalnet's conversions and queries.

Run from the root of a checkout:

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One client runs operations closed-loop in this process, for at least
``--seconds`` and at least ``MIN_OPS`` operations.  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` a separate traced run gives the per-layer metrics instead.
The lines before it print each metric with its unit and sample count.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as wl
from tracing import Tracer, metric_names

WORK = wl.ROOT / ".bench_work"

# At least ten samples lie above op_s.p90 when a run has 100 operations.
MIN_OPS = 100
# A run that has not reached MIN_OPS stops here, so it exits in time.
MAX_RUN_S = 110.0
# The traced run halves --seconds between an untraced and a traced phase.
MIN_TRACED_OPS = 20
MAX_TRACED_PHASE_S = 50.0
WARMUP_OPS = 1
WARMUP_BASE = 1_000_000
SETUP_REPEATS = 10
CLI_START_REPEATS = 5
CLI_START_TIMEOUT_S = 30.0

# The speed of a shared machine drifts: on a 2-vCPU VM the same operation
# took from 0.11 s to 0.19 s minutes apart, and the median of a 30 s run
# spread by 8-24% between runs.  A fixed calibration kernel is timed just
# before and just after every operation and every set-up, and each time is
# reported as ``wall * CAL_REF_S / calibration``: the time on a machine
# where the kernel takes ``CAL_REF_S``, about its median on that VM
# (Python 3.11, numpy 2.4).  Over ten runs each of chain and grid this cut
# the spread of the median from 8% to 3%.  Raw wall medians are printed on
# the summary lines.
CAL_REF_S = 0.004
# Preallocated, so that calibrating adds nothing to peak_rss_mb.
_CAL_IN = np.linspace(0.0, 1.0, 1 << 16)
_CAL_OUT = np.empty_like(_CAL_IN)


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter and numpy work."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for j in range(12_000):
        counts[j & 255] = counts.get(j & 255, 0) + 1
    for _ in range(16):
        np.multiply(_CAL_IN, _CAL_IN, out=_CAL_OUT)
        np.add(_CAL_OUT, 1.0, out=_CAL_OUT)
        np.sqrt(_CAL_OUT, out=_CAL_OUT)
    return perf_counter() - t0


def timed(fn, *args):
    """Run ``fn(*args)`` between two calibrations.

    Returns the result, the wall time and the wall time scaled to the
    reference machine speed.
    """
    c0 = calibration_s()
    t0 = perf_counter()
    out = fn(*args)
    wall = perf_counter() - t0
    c1 = calibration_s()
    return out, wall, wall * 2 * CAL_REF_S / (c0 + c1)


class Phase:
    """Timings (scaled and raw wall) and failures of one closed-loop phase."""

    def __init__(self):
        self.times: list[float] = []
        self.wall: list[float] = []
        self.attempted = 0
        self.failed = 0


def percentile(times: list[float], q: float) -> float:
    return float(np.percentile(times, q)) if times else float("nan")


def run_phase(workload, seconds: float, min_ops: int, cap_s: float, tracer=None,
              start: int = 0) -> Phase:
    """Run operations ``start, start+1, ...`` closed-loop and check each one.

    An operation fails when it raises, returns a wrong output, or (for the
    CLI) exits non-zero; it is counted and the loop goes on.
    """
    phase = Phase()
    t_start = perf_counter()
    i = start
    while True:
        elapsed = perf_counter() - t_start
        if elapsed >= cap_s or (elapsed >= seconds and i - start >= min_ops):
            break
        phase.attempted += 1
        try:
            workload.prepare(i)
            if tracer is not None:
                tracer.op = i - start
            out, wall, scaled = timed(workload.op, i)
            workload.check(i, out)
            phase.wall.append(wall)
            phase.times.append(scaled)
        except Exception:  # a failing operation is counted, never fatal
            phase.failed += 1
            if phase.failed <= 3:
                print(f"operation {i} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        i += 1
    return phase


def warm_up(workload) -> Phase:
    return run_phase(workload, 0.0, WARMUP_OPS, float("inf"), start=WARMUP_BASE)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(wl.SRC.rglob("*.py")))


def cli_start_s(seed: int) -> tuple[list[float], int]:
    """Wall times of ``python -m chordalnet.cli check`` on a chain document."""
    chain = wl.chain_inputs(wl.rng_for(seed, "chain", 2 * WARMUP_BASE), 100)
    path = WORK / "cli_start.json"
    path.write_text(json.dumps(chain.document), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(wl.SRC)}
    times, failed = [], 0
    for _ in range(CLI_START_REPEATS):
        t0 = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "chordalnet.cli", "check", str(path)],
                cwd=wl.ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=CLI_START_TIMEOUT_S,
            )
            failed += done.returncode != 0
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            failed += 1
        times.append(perf_counter() - t0)
    return times, failed


def metric(value: float, unit: str, samples: int) -> tuple[float, str, int]:
    return float(value), unit, samples


def end_to_end(args, workload) -> tuple[dict, int, int]:
    """Time set-ups and operations, set-ups spread evenly over the run.

    Each of ``SETUP_REPEATS`` slices re-imports chordalnet and rebuilds the
    inputs, warms up, then runs its share of timed operations, so that
    ``setup_s`` and ``op_s`` sample the same stretch of machine time.
    """
    setups, setups_wall, times, wall, attempted, failed = [], [], [], [], 0, 0
    min_ops = -(-MIN_OPS // SETUP_REPEATS)
    for _ in range(SETUP_REPEATS):
        _, setup_wall, setup_scaled = timed(lambda: workload.setup(wl.import_chordalnet()))
        setups.append(setup_scaled)
        setups_wall.append(setup_wall)
        warm = warm_up(workload)
        phase = run_phase(workload, args.seconds / SETUP_REPEATS, min_ops,
                          MAX_RUN_S / SETUP_REPEATS, start=attempted)
        times += phase.times
        wall += phase.wall
        attempted += warm.attempted + phase.attempted
        failed += warm.failed + phase.failed
    metrics = {
        "op_s.p50": metric(percentile(times, 50), "s", len(times)),
        "op_s.p90": metric(percentile(times, 90), "s", len(times)),
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        "success_ratio": metric(1.0 - failed / attempted, "ratio", attempted),
    }
    print(f"{workload.name:6s} {'wall op_s.p50':44s} {percentile(wall, 50):14.6g} s        n={len(wall)}")
    print(f"{workload.name:6s} {'wall setup_s':44s} {statistics.median(setups_wall):14.6g} s        n={len(setups_wall)}")
    return metrics, attempted, failed


def unit_of(name: str) -> str:
    if name.endswith((".s", ".self_s", "_s.p50")):
        return "s"
    if name.endswith("entries"):
        return "entries"
    if name.startswith("serial.bytes"):
        return "bytes"
    if name == "src_lines":
        return "lines"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def per_layer(args, workload) -> tuple[dict, int, int]:
    mods = wl.import_chordalnet()
    tracer = Tracer(mods)
    tracer.install()
    try:
        workload.setup(mods)
    finally:
        tracer.uninstall()
    warm = warm_up(workload)
    half = args.seconds / 2
    plain = run_phase(workload, half, MIN_TRACED_OPS, MAX_TRACED_PHASE_S)
    tracer.reset_counters()
    tracer.install()
    try:
        traced = run_phase(workload, half, MIN_TRACED_OPS, MAX_TRACED_PHASE_S, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans_{workload.name}_{args.seed}.jsonl")
    starts, start_failed = cli_start_s(args.seed)

    ops = traced.attempted
    layers = tracer.per_op_metrics(ops)
    layers["trace.overhead_ratio"] = percentile(traced.times, 50) / percentile(plain.times, 50)
    layers["src_lines"] = src_lines()
    layers["cli.start_s.p50"] = statistics.median(starts)
    samples = {"cli.start_s.p50": len(starts), "src_lines": 1}
    metrics = {
        name: metric(layers[name], unit_of(name), samples.get(name, ops))
        for name in metric_names() + ["trace.overhead_ratio", "src_lines", "cli.start_s.p50"]
    }
    attempted = warm.attempted + plain.attempted + traced.attempted + len(starts)
    failed = warm.failed + plain.failed + traced.failed + start_failed
    return metrics, attempted, failed


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, WORK)
    metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args, workload)
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:6s} {name:44s} {value:14.6g} {unit:8s} n={samples}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and collect their results."""
    results, status = {}, 0
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "chordalnet" / "__init__.py").is_file():
        print(f"error: no chordalnet sources under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
