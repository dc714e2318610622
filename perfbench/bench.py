"""Measurement passes of the benchmark; ``run.py`` is the command line.

Load model: one process, one closed-loop caller that sends the next
sequence only after the previous one returned, round-robin over the
workload's pool.  Every timed integer output is compared with the exact
oracle (``runtime.run_reference``) computed once, untimed, per pool sequence.
"""
from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import os
import platform
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from qlstm import floatguard, runtime, serialize
from qlstm.quant import QuantTensor

from .spans import Recorder, count_c_calls, instrument, per_sequence
from .stats import MIN_BEYOND, quartiles, tail_percentile
from .workloads import Workload, make_inputs

# Set-ups besides the first, spread evenly over the timed rounds so that
# they meet the same host speed as the latency blocks; setup_s is their
# upper quartile, which, like the latency tail, sits on the contended speed.
SETUP_REPEATS = 6
INT_SHARE = 0.7  # of --seconds for the integer engine; the rest times the float reference
BLOCK_S = 2.0  # one round of interleaved blocks
MIN_SAMPLES = 2 * MIN_BEYOND  # a tail percentile needs more than MIN_BEYOND samples

# Gated end-to-end metrics.  The p50 timings and the throughput are
# printed too (UNGATED) but not gated: on a shared 2-vCPU host the machine's
# speed changes by up to 2x in phases lasting minutes, which moves them by
# 50% between two sets of the same code, while the tail, which sits on the
# contended speed present in nearly every run, stays within a few percent.
END_TO_END = {
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "model_bytes": "bytes",
    "peak_mem_mb": "MB",
    "float_mae": "abs",
}
UNGATED = {
    "latency_p50_ms": "ms",
    "float_p50_ms": "ms",
    "steps_per_s": "steps/s",
}

# Per-layer metrics: span self time and total time per sequence, per set-up
# totals, and exact counts per sequence from the count pass.
SELF_MS = [
    "quant.int_matmul", "quant.requantize", "quant.rescale_add", "quant.divide_round",
    "quant.combine_round", "pwl.eval", "madnorm.int", "lstm.sequence", "lstm.preacts",
    "lstm.gates", "attention.sequence", "attention.attend", "attention.softmax",
    "attention.inject", "runtime.run",
]
TOTAL_MS = ["lstm.sequence", "attention.sequence", "runtime.residual", "runtime.projection"]
SETUP_MS = [
    "pwl.build", "lstm.spec_build", "runtime.calibrate", "runtime.convert",
    "serialize.save", "serialize.load",
]
COUNTS = [
    "quant.int_matmul.calls", "quant.int_matmul.macs", "quant.int_matmul.bytes",
    "quant.requantize.calls", "quant.rescale_add.calls", "pwl.eval.calls", "pwl.eval.elems",
    "madnorm.int.calls", "lstm.preacts.calls", "lstm.gates.calls", "attention.attend.calls",
    "floatguard.note.calls", "runtime.c_calls_per_step",
]
COUNT_UNITS = {
    "quant.int_matmul.macs": "count",
    "quant.int_matmul.bytes": "bytes",
    "pwl.eval.elems": "count",
    "runtime.c_calls_per_step": "calls/step",
}
PER_LAYER = {
    **{f"{n}.self_ms": "ms" for n in SELF_MS},
    **{f"{n}.ms": "ms" for n in TOTAL_MS + SETUP_MS},
    "pwl.build.calls": "calls",
    **{n: COUNT_UNITS.get(n, "calls") for n in COUNTS},
    "runtime.trace_overhead_ms": "ms",
    "serialize.manifest_bytes": "bytes",
    "serialize.blob_bytes": "bytes",
}


def as_int64(out) -> np.ndarray:
    """Integer output of ``run`` or ``run_reference`` as an int64 array."""
    return np.asarray(out.data if isinstance(out, QuantTensor) else out, dtype=np.int64)


def dequantize_output(model: runtime.IntModel, out) -> np.ndarray:
    last = model.layers[-1]
    if isinstance(last, runtime.IntProjection):
        return as_int64(out) * (last.qp_w.scale * last.qp_in.scale)
    return out.dequantize()


class ClosedLoop:
    """One caller that sends the pool round-robin, each call after the previous returned.

    A call that raises, or whose output differs from ``expected`` for its
    sequence, counts as failed.
    """

    def __init__(self, call, pool, expected=None, around=nullcontext):
        self.call, self.pool, self.expected, self.around = call, pool, expected, around
        self.latencies: list = []  # seconds per call
        self.steps = 0
        self.failed = 0
        self.busy = 0.0  # seconds spent in this loop's blocks

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_for(self, seconds: float, min_calls: int = 1) -> None:
        with self.around():
            start = time.perf_counter()
            n = 0
            while n < min_calls or time.perf_counter() - start < seconds:
                k = len(self.latencies) % len(self.pool)
                t0 = time.perf_counter()
                try:
                    out = self.call(self.pool[k])
                except Exception:
                    out = None
                self.latencies.append(time.perf_counter() - t0)
                ok = out is not None and (self.expected is None or np.array_equal(as_int64(out), self.expected[k]))
                self.failed += not ok
                self.steps += len(self.pool[k])
                n += 1
            self.busy += time.perf_counter() - start


def interleave(loops, shares, seconds: float, before_round=lambda r, rounds: None) -> None:
    """Run the loops in alternating blocks for ``seconds`` in all.

    The host's speed drifts over seconds, so alternating short blocks lets
    every loop sample the same drift instead of each owning one stretch.
    ``before_round(r, rounds)`` runs untimed before round ``r``.  Each loop
    ends with at least ``MIN_SAMPLES`` calls.
    """
    rounds = max(1, round(seconds / BLOCK_S))
    for r in range(rounds):
        before_round(r, rounds)
        for loop, share in zip(loops, shares):
            loop.run_for(seconds * share / rounds)
    for loop in loops:
        loop.run_for(0, min_calls=MIN_SAMPLES - loop.attempted)


def setup_rounds(rounds: int) -> set:
    """The rounds, spread evenly from the first, before which a set-up runs."""
    return {i * rounds // SETUP_REPEATS for i in range(SETUP_REPEATS)}


def deploy(workload: Workload, inputs, path: Path):
    """Float model in memory -> loaded integer model ready to run; returns (model, seconds)."""
    t0 = time.perf_counter()
    ranges = runtime.calibrate(inputs.model, inputs.calibration)
    int_model = runtime.convert(inputs.model, ranges, **workload.config)
    serialize.save(int_model, str(path))
    loaded = serialize.load(str(path))
    return loaded, time.perf_counter() - t0


def float_op_count(model, seq) -> int:
    with floatguard.trace_float_ops() as count:
        runtime.run(model, seq)
        return count()


def peak_memory_mb(model, seq) -> float:
    tracemalloc.start()
    try:
        runtime.run(model, seq)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def host_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


class Session:
    """One workload and seed: inputs, set-up, oracle outputs and checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, recorder: Recorder | None = None):
        self.workload = workload
        self.inputs = make_inputs(workload, seed)
        self.pool = self.inputs.pool
        self.recorder = recorder
        self.path = path = workdir / "model.json"
        self.setup_times = []
        self.model = self.set_up()
        self.manifest_bytes = path.stat().st_size
        self.blob_bytes = Path(str(path) + ".blob").stat().st_size
        self.expected = [as_int64(runtime.run_reference(self.model, s)) for s in self.pool]
        self.float_ops = float_op_count(self.model, self.pool[0])
        # the untimed first call of every pool sequence warms caches and is checked too
        warm = [as_int64(runtime.run(self.model, s)) for s in self.pool]
        self.warm_failed = sum(not np.array_equal(w, e) for w, e in zip(warm, self.expected))
        self.digest = hashlib.sha256(b"".join(w.tobytes() for w in warm)).hexdigest()

    def set_up(self):
        """One timed set-up (spanned when recording); returns the loaded model."""
        if self.recorder is None:
            model, seconds = deploy(self.workload, self.inputs, self.path)
        else:
            self.recorder.seq = -(len(self.setup_times) + 1)
            with instrument(self.recorder):
                model, seconds = deploy(self.workload, self.inputs, self.path)
        self.setup_times.append(seconds)
        return model

    def set_up_in_round(self, r: int, rounds: int) -> None:
        if r in setup_rounds(rounds):
            self.set_up()

    def run_int(self, seq):
        return runtime.run(self.model, seq)

    def info(self) -> dict:
        w = self.workload
        return {
            "why": w.why, "shapes": w.shapes, "config": w.config, "pool": len(self.pool),
            "pool_steps": [len(s) for s in self.pool], "output_digest": self.digest,
            "float_ops": self.float_ops, "warm_failed": self.warm_failed,
            "setup_times_s": self.setup_times, "host": host_info(),
        }

    def correct(self, *loops: ClosedLoop) -> bool:
        return self.float_ops == 0 and self.warm_failed == 0 and all(lp.failed == 0 for lp in loops)


def end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    s = Session(workload, seed, workdir)
    float_model = runtime.dequantize_model(s.model)
    errors = [
        np.abs(dequantize_output(s.model, runtime.run(s.model, seq)) - runtime.forward_float(float_model, seq)[-1])
        for seq in s.inputs.quality
    ]
    for seq in s.pool:  # the untimed first float call of every pool sequence
        runtime.forward_float(float_model, seq)
    ints = ClosedLoop(s.run_int, s.pool, s.expected)
    floats = ClosedLoop(lambda seq: runtime.forward_float(float_model, seq), s.pool)
    interleave([ints, floats], [INT_SHARE, 1 - INT_SHARE], seconds, s.set_up_in_round)
    pct, tail, beyond = tail_percentile(ints.latencies)
    ungated = {
        "latency_p50_ms": statistics.median(ints.latencies) * 1e3,
        "float_p50_ms": statistics.median(floats.latencies) * 1e3,
        "steps_per_s": ints.steps / ints.busy,
    }
    metrics = {
        "latency_tail_ms": tail * 1e3,
        "setup_s": quartiles(s.setup_times[1:])[2],
        "model_bytes": s.manifest_bytes + s.blob_bytes,
        "peak_mem_mb": peak_memory_mb(s.model, max(s.pool, key=len)),
        "float_mae": float(np.mean(np.concatenate([e.ravel() for e in errors]))),
    }
    info = s.info() | {
        "ungated": {k: {"value": v, "unit": UNGATED[k]} for k, v in ungated.items()},
        "latency_tail_percentile": pct, "latency_tail_beyond": beyond, "latency_samples": ints.attempted,
        "float_samples": floats.attempted, "fail_ratio": ints.failed / ints.attempted,
    }
    return dict(metrics=metrics, units=END_TO_END, info=info, attempted=ints.attempted,
                failed=ints.failed, correct=s.correct(ints, floats))


def count_pass(model, pool) -> dict:
    """Exact counts per sequence (median over the pool): kernel calls, MACs,
    bytes and float-guard hooks from counting wrappers, and C-level calls per
    step from ``sys.setprofile`` on the uninstrumented engine."""
    per_seq = []
    for seq in pool:
        rec = Recorder()
        with instrument(rec, count_notes=True):
            runtime.run(model, seq)
        counts = {key: value for (_, key), value in rec.counts.items()}
        counts["runtime.c_calls_per_step"] = count_c_calls(runtime.run, model, seq) / len(seq)
        per_seq.append(counts)
    return {name: statistics.median(c.get(name, 0) for c in per_seq) for name in COUNTS}


def traced(workload: Workload, seed: int, seconds: float, workdir: Path, span_file: Path) -> dict:
    rec = Recorder()
    s = Session(workload, seed, workdir, recorder=rec)
    ids = itertools.count()

    def traced_run(seq):
        rec.seq = next(ids)
        return runtime.run(s.model, seq)

    plain = ClosedLoop(s.run_int, s.pool, s.expected)
    spanned = ClosedLoop(traced_run, s.pool, s.expected, around=lambda: instrument(rec))
    interleave([plain, spanned], [0.5, 0.5], seconds, s.set_up_in_round)
    counts = count_pass(s.model, s.pool)
    repeated = count_pass(s.model, s.pool) == counts

    table = per_sequence(rec.spans)
    runs = [q for q in table if q >= 0]
    setups = [q for q in table if q < 0]

    def med(seqs, name, field):
        return statistics.median(table[q][name][field] if name in table[q] else 0 for q in seqs) / 1e6

    metrics = {f"{n}.self_ms": med(runs, n, 1) for n in SELF_MS}
    metrics |= {f"{n}.ms": med(runs, n, 0) for n in TOTAL_MS}
    metrics |= {f"{n}.ms": med(setups, n, 0) for n in SETUP_MS}
    metrics["pwl.build.calls"] = statistics.median(rec.counts[q, "pwl.build.calls"] for q in setups)
    metrics |= counts
    metrics["runtime.trace_overhead_ms"] = (
        statistics.median(spanned.latencies) - statistics.median(plain.latencies)
    ) * 1e3
    metrics["serialize.manifest_bytes"] = s.manifest_bytes
    metrics["serialize.blob_bytes"] = s.blob_bytes

    with gzip.open(span_file, "wt", encoding="utf-8") as fh:
        for sp in rec.spans:
            fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.seq]) + "\n")
    info = s.info() | {"counts_repeat": repeated, "traced_sequences": spanned.attempted, "span_file": str(span_file)}
    attempted = plain.attempted + spanned.attempted
    failed = plain.failed + spanned.failed
    return dict(metrics=metrics, units=PER_LAYER, info=info, attempted=attempted, failed=failed,
                correct=s.correct(plain, spanned) and repeated)
