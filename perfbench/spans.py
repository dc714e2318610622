"""Span recorder that times the package's public functions from outside.

The package is not edited: each public function is wrapped where it is
looked up.  ``from .quant import int_matmul`` gives ``qlstm.lstm`` its own
binding of the name, separate from ``qlstm.attention.int_matmul`` and
``qlstm.runtime.int_matmul``, so every binding is re-bound on its own and
restored afterwards.  Spans stay in memory until the benchmark writes them
out.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module or class, attribute) -> span names, outermost first.  The runtime's
# own bindings of int_matmul and rescale_add are its final projection and its
# residual add, so they open a runtime span around the kernel's span.
BINDINGS = {
    ("qlstm.runtime", "run"): ("runtime.run",),
    ("qlstm.runtime", "calibrate"): ("runtime.calibrate",),
    ("qlstm.runtime", "convert"): ("runtime.convert",),
    ("qlstm.runtime", "int_matmul"): ("runtime.projection", "quant.int_matmul"),
    ("qlstm.runtime", "rescale_add"): ("runtime.residual", "quant.rescale_add"),
    ("qlstm.runtime", "lstm_sequence_int"): ("lstm.sequence",),
    ("qlstm.runtime", "bilstm_sequence_int"): ("lstm.sequence",),
    ("qlstm.runtime", "attn_decoder_sequence_int"): ("attention.sequence",),
    ("qlstm.serialize", "save"): ("serialize.save",),
    ("qlstm.serialize", "load"): ("serialize.load",),
    ("qlstm.lstm", "int_matmul"): ("quant.int_matmul",),
    ("qlstm.lstm", "requantize_scaled"): ("quant.requantize",),
    ("qlstm.lstm", "rescale_add"): ("quant.rescale_add",),
    ("qlstm.lstm", "eval_pwl_int"): ("pwl.eval",),
    ("qlstm.lstm", "build_pwl"): ("pwl.build",),
    ("qlstm.lstm", "madnorm_int"): ("madnorm.int",),
    ("qlstm.lstm", "lstm_gate_preacts_int"): ("lstm.preacts",),
    ("qlstm.lstm", "lstm_apply_gates_int"): ("lstm.gates",),
    ("qlstm.lstm.QuantLstmSpec", "from_float"): ("lstm.spec_build",),
    ("qlstm.attention", "int_matmul"): ("quant.int_matmul",),
    ("qlstm.attention", "requantize_scaled"): ("quant.requantize",),
    ("qlstm.attention", "rescale_add"): ("quant.rescale_add",),
    ("qlstm.attention", "divide_round"): ("quant.divide_round",),
    ("qlstm.attention", "eval_pwl_int"): ("pwl.eval",),
    ("qlstm.attention", "build_pwl"): ("pwl.build",),
    ("qlstm.attention", "lstm_gate_preacts_int"): ("lstm.preacts",),
    ("qlstm.attention", "lstm_apply_gates_int"): ("lstm.gates",),
    ("qlstm.attention", "attention_int"): ("attention.attend",),
    ("qlstm.attention", "softmax_int"): ("attention.softmax",),
    ("qlstm.attention", "inject_context"): ("attention.inject",),
    ("qlstm.madnorm", "requantize_scaled"): ("quant.requantize",),
    ("qlstm.madnorm", "combine_round"): ("quant.combine_round",),
}

# Counted, never timed: timing a no-op would mostly measure the timer.
COUNTED = {("qlstm.floatguard", "note"): "floatguard.note"}


def _matmul_work(args, result) -> dict:
    """MACs and int32 bytes of ``a @ b``, from the operand shapes."""
    a, b = args[0], args[1]
    k = np.shape(a)[-1]
    return {
        "macs": int(np.size(result)) * k,
        "bytes": 4 * (int(np.size(a)) + int(np.size(b)) + int(np.size(result))),
    }


def _pwl_elems(args, result) -> dict:
    return {"elems": int(np.size(args[0]))}


MEASURES = {"quant.int_matmul": _matmul_work, "pwl.eval": _pwl_elems}


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at top level
    seq: int  # sequence id (negative ids are set-ups)


class Recorder:
    """Spans and exact counts, keyed by the current sequence id."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # (seq, metric) -> count
        self.seq = 0
        self._stack: list = []

    def timed(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        measure = MEASURES.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self.seq)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            counts[span.seq, name + ".calls"] += 1
            if measure is not None:
                for key, value in measure(args, result).items():
                    counts[span.seq, f"{name}.{key}"] += value
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.seq, name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(path: str):
    """Module for a dotted module path, or the class for ``module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


@contextmanager
def instrument(recorder: Recorder, count_notes: bool = False):
    """Re-bind every public function in :data:`BINDINGS` to a timed wrapper.

    With ``count_notes`` the float-guard hook is counted as well.  All
    original bindings are restored on exit.
    """
    saved = []
    try:
        for (path, attr), names in BINDINGS.items():
            owner = _resolve(path)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            for name in reversed(names):
                fn = recorder.timed(name, fn)
            saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(fn) if isinstance(raw, classmethod) else fn)
        if count_notes:
            for (path, attr), name in COUNTED.items():
                owner = _resolve(path)
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, recorder.counted(name, vars(owner)[attr]))
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def per_sequence(spans) -> dict:
    """``{seq: {name: [total_ns, self_ns]}}`` summed over each sequence's spans."""
    table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for s, own in zip(spans, self_times(spans)):
        cell = table[s.seq][s.name]
        cell[0] += s.end - s.start
        cell[1] += own
    return table


def count_c_calls(fn, *args) -> int:
    """Run ``fn(*args)`` under ``sys.setprofile`` and count its C-level calls."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "c_call":
            n += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return n
