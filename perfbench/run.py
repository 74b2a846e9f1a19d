"""Time to a checked verdict, per workload, calibrated against host drift.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

One run is one workload in one fresh process, one client in a closed loop: no
threads, no subprocess per op.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Other
diagnostics go to stderr.  ``--smoke`` runs every workload at its smallest
size in both modes and prints one such line per run.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calib import NOMINAL_KERNEL_S, calibrated, kernel_seconds
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"

WORKLOAD_NAMES = ("certify", "prove", "refute", "compile")
POOL = 8  # distinct inputs per run, cycled in order
SETUPS = 9  # setups per end-to-end run; setup_s is their median
MIN_SAMPLES = 100  # so that at least ten samples lie above p90
CAP_S = 120.0  # a run that cannot reach MIN_SAMPLES stops here

# Per-layer metrics: span name -> the statistics reported for it.
LAYER_METRICS = (
    ("minsky.search_halting", ("self_ms",)),
    ("minsky.successors", ("calls", "self_ms")),
    ("minsky.parse_machine", ("self_ms",)),
    ("programs.prove_bounded", ("self_ms",)),
    ("programs.compose", ("calls", "self_ms", "copy_ratio")),
    ("programs.HornProgram.build", ("calls", "self_ms")),
    ("programs.strong_fork", ("calls",)),
    ("programs.verify_strong_solution", ("self_ms",)),
    ("programs.evaluate", ("self_ms",)),
    ("programs.program_to_json", ("self_ms",)),
    ("encoding.MachineEncoding.sequent", ("self_ms",)),
    ("encoding.decode_product", ("calls",)),
    ("bridge.computation_to_program", ("self_ms",)),
    ("bridge.program_to_computation", ("self_ms",)),
    ("bridge.round_trip_check", ("self_ms",)),
    ("ll.ll_proof_from_json", ("self_ms",)),
    ("ll.check_ll_proof", ("self_ms",)),
    ("ll.push_oplus_down", ("self_ms",)),
    ("ll.unadjacent_choice_paths", ("calls",)),
    ("ll.specialize", ("calls",)),
    ("ll.translate_ll_to_hll", ("self_ms",)),
    ("hll.check_hll_proof", ("self_ms",)),
    ("hll.compile_hll_to_program", ("self_ms",)),
    ("syntax.parse_sequent", ("self_ms",)),
    ("syntax.sequent_text", ("self_ms",)),
)
UNITS = {"calls": "count", "self_ms": "ms", "copy_ratio": "ratio"}


@dataclass(frozen=True)
class Sample:
    wall: float  # seconds
    kernel: float  # mean of the two adjacent kernel times, seconds
    ms: float  # calibrated op time
    ok: bool
    vertices: int | None  # of the certificate the op output, if any


def _purge():
    for key in list(sys.modules):
        if key == "hornlog" or key.startswith("hornlog.") or key == "workloads":
            del sys.modules[key]


def setup(name: str, seed: int, size: dict, count: int):
    """Import hornlog fresh, build the inputs as text, run one warm-up op.

    The three phases are timed apart, each calibrated by the kernels run
    right before and right after it, so a host slowdown during one phase is
    charged to that phase alone.  Returns (workload, inputs, calibrated
    seconds, warm-up outcome).
    """
    _purge()
    gc.collect()
    kernels = [kernel_seconds()]
    walls = []

    def phase(step):
        start = time.perf_counter()
        value = step()
        walls.append(time.perf_counter() - start)
        kernels.append(kernel_seconds())
        return value

    workload = phase(lambda: importlib.import_module("workloads").WORKLOADS[name])
    inputs = phase(lambda: workload.make_inputs(random.Random(seed), size, count))
    warm = phase(lambda: _attempt(workload, inputs[0]))
    seconds = sum(calibrated(wall, kernels[i], kernels[i + 1]) for i, wall in enumerate(walls))
    return workload, inputs, seconds, _judge(workload, inputs[0], warm)


def _attempt(workload, item):
    try:
        return workload.run_op(item)
    except Exception as exc:  # a crash is a miss, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return exc


def _judge(workload, item, result):
    if isinstance(result, Exception):
        return False, None
    outcome = workload.judge(item, result)
    if not outcome.ok:
        print(f"{workload.name}: wrong verdict: {outcome.detail}", file=sys.stderr)
    return outcome.ok, outcome.vertices


def run_ops(workload, inputs, seconds: float, min_ops: int, tracer: Tracer | None = None):
    """Closed loop: gc.collect, one timed op, one kernel, judge; repeat."""
    samples: list[Sample] = []
    previous = kernel_seconds()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(samples) >= min_ops or elapsed >= max(seconds, CAP_S):
            return samples
        item = inputs[len(samples) % len(inputs)]
        gc.collect()
        if tracer is not None:
            tracer.op_id = len(samples)
        t0 = time.perf_counter()
        result = _attempt(workload, item)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
        after = kernel_seconds()
        ok, vertices = _judge(workload, item, result)
        ms = calibrated(wall, previous, after) * 1000
        samples.append(Sample(wall, (previous + after) / 2, ms, ok, vertices))
        previous = after
        del result


def _p90_with_tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank p90 and how many samples lie above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float, size: dict, setups: int, min_ops: int) -> dict:
    setup_times = []
    warm_ok = True
    for _ in range(setups):
        workload, inputs, setup_s, (ok, _) = setup(name, seed, size, POOL)
        setup_times.append(setup_s)
        warm_ok = warm_ok and ok
    samples = run_ops(workload, inputs, seconds, min_ops)
    times = [s.ms for s in samples]
    p90, above = _p90_with_tail(times)
    failed = sum(1 for s in samples if not s.ok)
    vertices = [s.vertices for s in samples if s.vertices is not None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{name}: {len(samples)} samples, {above} above p90, "
        f"median kernel {statistics.median(s.kernel for s in samples) * 1000:.2f} ms "
        f"(nominal {NOMINAL_KERNEL_S * 1000:.2f}), "
        f"setups {', '.join(f'{t:.3f}' for t in setup_times)} s",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "verdict_p50_ms": _metric(statistics.median(times), "ms"),
        "verdict_p90_ms": _metric(p90, "ms"),
        "ok_frac": _metric((len(samples) - failed) / len(samples), "ratio"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        # A refutation outputs no certificate; the metric reads 1 there, since
        # an end-to-end metric must never be 0.
        "cert_vertices": _metric(statistics.median_low(vertices) if vertices else 1, "count"),
    }
    return _result(samples, failed, warm_ok, metrics)


def _result(samples, failed, warm_ok, metrics) -> dict:
    return {
        "correct": failed == 0 and warm_ok,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def per_layer(name: str, seed: int, seconds: float, size: dict, min_ops: int) -> dict:
    """Half the time untraced, half traced; the ratio is the tracing overhead."""
    workload, inputs, _, (warm_ok, _) = setup(name, seed, size, POOL)
    plain = run_ops(workload, inputs, seconds / 2, min(min_ops, 20))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, inputs, seconds / 2, len(inputs), tracer)
    finally:
        tracer.uninstall()
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{name}-seed{seed}.tsv")

    per_op = tracer.per_op()
    scale = [NOMINAL_KERNEL_S / s.kernel for s in traced]
    # Counts come from the first pass over the input pool, so they are exact
    # and repeat for a seed whatever the run length.
    first_pass = range(len(inputs))
    metrics = {}
    for span, stats in LAYER_METRICS:
        for stat in stats:
            if stat == "calls":
                value = sum(per_op[op][span][0] for op in first_pass if span in per_op[op]) / len(inputs)
            elif stat == "self_ms":
                value = statistics.median(
                    per_op[op][span][1] * scale[op] * 1000 if span in per_op[op] else 0.0
                    for op in range(len(traced))
                )
            else:
                copied = sum(tracer.compose_vertices.get(op, 0) for op in first_pass)
                witness = sum(traced[op].vertices or 0 for op in first_pass)
                value = copied / witness if witness else 0.0
            metrics[f"{span}.{stat}"] = _metric(value, UNITS[stat])
    plain_p50 = statistics.median(s.ms for s in plain)
    traced_p50 = statistics.median(s.ms for s in traced)
    metrics["host.ref_kernel_ms"] = _metric(statistics.median(s.kernel for s in plain + traced) * 1000, "ms")
    metrics["host.raw_p50_ms"] = _metric(statistics.median(s.wall for s in plain) * 1000, "ms")
    metrics["host.trace_overhead"] = _metric(traced_p50 / plain_p50, "ratio")
    _print_shares(name, per_op, scale, traced_p50)

    samples = plain + traced
    failed = sum(1 for s in samples if not s.ok)
    return _result(samples, failed, warm_ok, metrics)


def _print_shares(name: str, per_op, scale, traced_p50: float):
    """Median inclusive time per wrapped function as a share of the op p50."""
    names = sorted({span for ops in per_op.values() for span in ops})
    rows = []
    for span in names:
        inclusive = statistics.median(
            per_op[op][span][2] * scale[op] * 1000 if span in per_op[op] else 0.0
            for op in range(len(scale))
        )
        rows.append((inclusive, span))
    print(f"{name}: inclusive ms per op (share of traced p50 {traced_p50:.2f} ms)", file=sys.stderr)
    for inclusive, span in sorted(rows, reverse=True):
        print(f"  {span:36s} {inclusive:9.3f}  {inclusive / traced_p50:6.1%}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its smallest size, both modes, one op or pass each")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "hornlog" / "__init__.py").is_file():
        print(f"error: no hornlog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.smoke:
        from workloads import SMOKE
        correct = True
        for name in ([args.workload] if args.workload else WORKLOAD_NAMES):
            for result in (
                end_to_end(name, args.seed, 0, SMOKE[name], setups=1, min_ops=1),
                per_layer(name, args.seed, 0, SMOKE[name], min_ops=1),
            ):
                print(json.dumps(result))
                correct = correct and result["correct"]
        return 0 if correct else 1

    from workloads import FULL
    size = FULL[args.workload]
    if args.trace:
        result = per_layer(args.workload, args.seed, args.seconds, size, MIN_SAMPLES)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, size, SETUPS, MIN_SAMPLES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
