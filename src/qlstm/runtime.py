"""Network assembly, calibration, float-to-integer conversion and execution.

A model is an ordered stack of layers (embedding, LSTM/BiLSTM/MadNorm-LSTM,
attention decoder, residual add, final projection).  The float form is used
for calibration and as the accuracy reference; conversion produces an
integer model whose ``run`` touches no floating point and whose outputs are
reproduced bit-exactly by the exact-arithmetic reference engine.

Every layer type is one float class and one integer class, and each class
carries all of its type-specific code, so the model-level functions below
are plain loops over the stack:

* a float layer has ``forward(x, outputs, record)``, ``stages(prefix)`` (the
  calibration keys it needs) and ``convert(ranges, prefix, qp_in, out_qps,
  **opts)``, which returns its integer layer;
* an integer layer has ``qp_in``/``qp_out``, ``links`` (the qparams chain
  checks), ``run``, ``run_exact`` (its exact oracle) and ``dequantize``;
* both have ``encode(writer, prefix)`` and ``decode(reader, desc)`` for the
  manifest, whose type tags ``serialize`` maps to the classes.

``outputs`` holds the outputs of the layers already run, for residuals.
Per-stage quantization parameters chain through the stack: every layer
consumes its producer's output qparams, so adjacent layers always agree on
the wire format.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import floatguard
from .attention import (
    AttentionWeights,
    QuantAttnDecoderSpec,
    attn_decoder_sequence_exact,
    attn_decoder_sequence_int,
    attn_decoder_sequence_real,
)
from .lstm import (
    BiLstmSpec,
    LstmWeights,
    QuantLstmSpec,
    bilstm_sequence_exact,
    bilstm_sequence_int,
    bilstm_sequence_real,
    lstm_sequence_exact,
    lstm_sequence_int,
    lstm_sequence_real,
    stage_qparams,
)
from .quant import (
    DegenerateRangeError,
    QuantParams,
    QuantTensor,
    ScaledMultiplier,
    check_accumulator,
    compute_qparams,
    dequantize,
    int_matmul,
    quantize_bias,
    quantize_weights,
    rescale_add,
    rescale_add_exact,
)

_CELL_STAGES = ["mx", "mh", "pre_sig", "pre_j", "sig", "tanh_j", "p_fc", "p_ij", "c", "tanh_c", "h", "x"]
_NORM_STAGES = [f"{p}.{s}" for p in ("nx", "nh", "nc") for s in ("mu", "xhat", "d", "y")]
_ATTN_STAGES = ["q", "k", "sum", "tanh", "e", "exp_in", "exp_out", "alpha", "ctx"]


class _Layer:
    """Where a layer may sit in a stack; shared by the float and integer forms."""

    takes_tokens = False  # consumes token ids, so it must come first
    emits_logits = False  # ends the stack


def _check_structure(layers) -> None:
    for i, layer in enumerate(layers):
        if layer.takes_tokens and i != 0:
            raise ValueError("embedding must be the first layer")
        if layer.emits_logits and i != len(layers) - 1:
            raise ValueError("final projection must be the last layer")
        skip = getattr(layer, "skip_from", None)
        if skip is not None and not (isinstance(skip, (int, np.integer)) and 0 <= skip < i):
            raise ValueError("residual skip must reference an earlier layer")


def _sub(ranges: dict, prefix: str) -> dict:
    """The ranges under ``prefix.``, with the prefix stripped."""
    pre = prefix + "."
    return {k[len(pre):]: v for k, v in ranges.items() if k.startswith(pre)}


def _encode_weights(w, prefix: str, weights: LstmWeights, key: str = "") -> dict:
    return {f"{key}{n}": w.tensor(f"{prefix}.{key}{n}", getattr(weights, n)) for n in ("w_x", "w_h", "bias")}


def _decode_weights(r, tensors: dict, key: str = "") -> LstmWeights:
    return LstmWeights(*(r.tensor(tensors[f"{key}{n}"]) for n in ("w_x", "w_h", "bias")))


def _dequant_cell(spec: QuantLstmSpec) -> LstmWeights:
    return LstmWeights(
        dequantize(spec.w_x_q, spec.qp_wx),
        dequantize(spec.w_h_q, spec.qp_wh),
        spec.bias_q * (spec.qp_wx.scale * spec.qp_x.scale),
    )


# ---------------------------------------------------------------------------
# float layers
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingLayer(_Layer):
    table: np.ndarray  # (vocab, dim)

    takes_tokens = True

    def forward(self, tokens, outputs, record):
        return self.table[_check_tokens(tokens, self.table.shape[0])]

    def stages(self, prefix):
        return []

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        return IntEmbedding(*quantize_weights(self.table))

    def encode(self, w, prefix):
        return {"type": "embedding", "tensors": {"table": w.tensor(f"{prefix}.table", self.table)}}

    @classmethod
    def decode(cls, r, d):
        return cls(r.tensor(d["tensors"]["table"]))


@dataclass
class LstmLayer(_Layer):
    weights: LstmWeights
    norm: bool = False

    def forward(self, x, outputs, record):
        return lstm_sequence_real(x, self.weights, record=record, norm=self.norm)

    def stages(self, prefix):
        return [f"{prefix}.{s}" for s in _CELL_STAGES + (_NORM_STAGES if self.norm else [])]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        spec = QuantLstmSpec.from_float(self.weights, _sub(ranges, prefix), qp_x=qp_in, norm=self.norm, **opts)
        return IntLstm(spec)

    def encode(self, w, prefix):
        return {
            "type": "madnorm_lstm" if self.norm else "lstm",
            "norm": self.norm,
            "tensors": _encode_weights(w, prefix, self.weights),
        }

    @classmethod
    def decode(cls, r, d):
        return cls(_decode_weights(r, d["tensors"]), norm=d.get("norm", d["type"] == "madnorm_lstm"))


@dataclass
class BiLstmLayer(_Layer):
    fwd: LstmWeights
    bwd: LstmWeights

    def forward(self, x, outputs, record):
        return bilstm_sequence_real(x, self.fwd, self.bwd, record=record)

    def stages(self, prefix):
        return [f"{prefix}.{d}.{s}" for d in ("fwd", "bwd") for s in _CELL_STAGES]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        rf, rb = _sub(ranges, f"{prefix}.fwd"), _sub(ranges, f"{prefix}.bwd")
        return IntBiLstm(BiLstmSpec.from_float(self.fwd, self.bwd, rf, rb, qp_x=qp_in, **opts))

    def encode(self, w, prefix):
        t = _encode_weights(w, prefix, self.fwd, "fwd.")
        return {"type": "bilstm", "tensors": {**t, **_encode_weights(w, prefix, self.bwd, "bwd.")}}

    @classmethod
    def decode(cls, r, d):
        return cls(_decode_weights(r, d["tensors"], "fwd."), _decode_weights(r, d["tensors"], "bwd."))


@dataclass
class AttentionDecoderLayer(_Layer):
    cell: LstmWeights
    attn: AttentionWeights

    def forward(self, x, outputs, record):
        return attn_decoder_sequence_real(x, x, self.cell, self.attn, record=record)

    def stages(self, prefix):
        return [f"{prefix}.{s}" for s in _CELL_STAGES + ["ms"]] + [f"{prefix}.attn.{s}" for s in _ATTN_STAGES]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        spec = QuantAttnDecoderSpec.from_float(
            self.cell, self.attn, _sub(ranges, prefix), qp_x=qp_in, qp_enc=qp_in, **opts
        )
        return IntAttnDecoder(spec)

    def encode(self, w, prefix):
        t = _encode_weights(w, prefix, self.cell)
        for n in ("w_q", "w_k", "v", "w_s"):
            t[n] = w.tensor(f"{prefix}.{n}", getattr(self.attn, n))
        return {"type": "attention_decoder", "tensors": t}

    @classmethod
    def decode(cls, r, d):
        t = d["tensors"]
        attn = AttentionWeights(*(r.tensor(t[n]) for n in ("w_q", "w_k", "v", "w_s")))
        return cls(_decode_weights(r, t), attn)


@dataclass
class ResidualAddLayer(_Layer):
    skip_from: int

    def forward(self, x, outputs, record):
        out = outputs[self.skip_from] + x
        record("out", out)
        return out

    def stages(self, prefix):
        return [f"{prefix}.out"]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        qp_out = stage_qparams(ranges, f"{prefix}.out", 8)
        return IntResidual(self.skip_from, out_qps[self.skip_from], qp_in, qp_out)

    def encode(self, w, prefix):
        return {"type": "residual_add", "skip_from": self.skip_from}

    @classmethod
    def decode(cls, r, d):
        return cls(d["skip_from"])


@dataclass
class FinalProjectionLayer(_Layer):
    w: np.ndarray  # (vocab, m); m is 2x the hidden size after a BiLSTM
    bias: np.ndarray

    emits_logits = True

    def __post_init__(self):
        check_accumulator((np.shape(self.w)[-1],))

    def forward(self, x, outputs, record):
        return x @ self.w.T + self.bias

    def stages(self, prefix):
        return []

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        w_q, qp_w = quantize_weights(self.w)
        return IntProjection(w_q, qp_w, quantize_bias(self.bias, qp_w.scale * qp_in.scale), qp_in)

    def encode(self, w, prefix):
        t = {"w": w.tensor(f"{prefix}.w", self.w), "bias": w.tensor(f"{prefix}.bias", self.bias)}
        return {"type": "final_projection", "tensors": t}

    @classmethod
    def decode(cls, r, d):
        return cls(r.tensor(d["tensors"]["w"]), r.tensor(d["tensors"]["bias"]))


@dataclass
class FloatModel:
    layers: list

    def __post_init__(self):
        _check_structure(self.layers)

    @property
    def takes_tokens(self) -> bool:
        return bool(self.layers) and self.layers[0].takes_tokens


class CalibrationObserver:
    """Running per-stage min/max over observed activations."""

    def __init__(self):
        self.ranges: dict = {}

    def __call__(self, name: str, value) -> None:
        v = np.asarray(value, dtype=np.float64)
        if v.size == 0:
            return
        lo, hi = float(v.min()), float(v.max())
        if name in self.ranges:
            old = self.ranges[name]
            self.ranges[name] = (min(old[0], lo), max(old[1], hi))
        else:
            self.ranges[name] = (lo, hi)

    def prefixed(self, prefix: str):
        return lambda name, value: self(f"{prefix}.{name}", value)


def forward_float(model: FloatModel, seq, record=None) -> list:
    """Run the float model, returning every layer's output sequence."""
    obs = record if record is not None else (lambda name, value: None)
    cur = seq
    if not model.takes_tokens:
        cur = np.atleast_2d(np.asarray(seq, dtype=np.float64))
        obs("input", cur)
    outputs = []
    for i, layer in enumerate(model.layers):
        cur = layer.forward(cur, outputs, _prefixed(obs, f"L{i}"))
        outputs.append(cur)
    return outputs


def _prefixed(obs, prefix):
    return lambda name, value: obs(f"{prefix}.{name}", value)


def _check_tokens(seq, vocab: int) -> np.ndarray:
    tokens = np.asarray(seq)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("token input must be a non-empty 1-D sequence")
    if tokens.dtype.kind not in "iu":
        raise ValueError("token input must be integer ids")
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise ValueError("input id out of vocabulary")
    return tokens


def required_stages(model: FloatModel) -> list:
    """Stage keys that calibration must observe for this model."""
    stages = [s for i, layer in enumerate(model.layers) for s in layer.stages(f"L{i}")]
    return stages if model.takes_tokens else stages + ["input"]


def _missing_stages(model: FloatModel, ranges: dict) -> list:
    return [s for s in required_stages(model) if s not in ranges]


def calibrate(model: FloatModel, batches) -> dict:
    """Observe per-stage ranges over a stream of input sequences.

    Returns the ``{stage: (min, max)}`` map consumed by :func:`convert`.
    Raises if any stage required by the model was never observed.
    """
    obs = CalibrationObserver()
    for seq in batches:
        forward_float(model, seq, record=obs)
    missing = _missing_stages(model, obs.ranges)
    if missing:
        raise ValueError(f"stages never observed during calibration: {', '.join(missing)}")
    return obs.ranges


# ---------------------------------------------------------------------------
# integer layers
# ---------------------------------------------------------------------------


class _IntLayer(_Layer):
    def links(self, prev, out_qps) -> list:
        """``(consumed, produced, where)`` qparams pairs that must be equal."""
        return [] if self.qp_in is None else [(self.qp_in, prev, "")]


@dataclass
class IntEmbedding(_IntLayer):
    table_q: np.ndarray
    qp: QuantParams

    takes_tokens = True
    qp_in = None  # consumes token ids, not a layer's output

    @property
    def qp_out(self):
        return self.qp

    def run(self, tokens, outputs, float_act):
        return QuantTensor(self.table_q[tokens], self.qp)

    def run_exact(self, tokens, outputs):
        return self.table_q[tokens].astype(np.int64), self.qp

    def dequantize(self):
        return EmbeddingLayer(dequantize(self.table_q, self.qp))

    def encode(self, w, prefix):
        return {
            "type": "embedding",
            "tensors": {"table": w.tensor(f"{prefix}.table", self.table_q)},
            "qparams": {"out": w.qp(f"{prefix}.out", self.qp)},
        }

    @classmethod
    def decode(cls, r, d):
        return cls(r.tensor(d["tensors"]["table"]), r.qp(d["qparams"]["out"]))


@dataclass
class IntLstm(_IntLayer):
    spec: QuantLstmSpec

    @property
    def qp_in(self):
        return self.spec.qp_x

    @property
    def qp_out(self):
        return self.spec.qp_h

    @property
    def input_size(self) -> int:
        return self.spec.input_size

    def run(self, x, outputs, float_act):
        return lstm_sequence_int(x, self.spec, float_act=float_act)

    def run_exact(self, x, outputs):
        return lstm_sequence_exact(x[0], self.spec), self.qp_out

    def dequantize(self):
        return LstmLayer(_dequant_cell(self.spec), norm=self.spec.norm)

    def encode(self, w, prefix):
        return {"type": "madnorm_lstm" if self.spec.norm else "lstm", **w.cell(prefix, self.spec)}

    @classmethod
    def decode(cls, r, d):
        return cls(r.cell(d))


@dataclass
class IntBiLstm(_IntLayer):
    spec: BiLstmSpec

    @property
    def qp_in(self):
        return self.spec.fwd.qp_x

    @property
    def qp_out(self):
        return self.spec.qp_h

    @property
    def input_size(self) -> int:
        return self.spec.fwd.input_size

    def run(self, x, outputs, float_act):
        return bilstm_sequence_int(x, self.spec, float_act=float_act)

    def run_exact(self, x, outputs):
        return bilstm_sequence_exact(x[0], self.spec), self.qp_out

    def dequantize(self):
        return BiLstmLayer(_dequant_cell(self.spec.fwd), _dequant_cell(self.spec.bwd))

    def encode(self, w, prefix):
        fwd = w.cell(f"{prefix}.fwd", self.spec.fwd)
        return {"type": "bilstm", "fwd": fwd, "bwd": w.cell(f"{prefix}.bwd", self.spec.bwd)}

    @classmethod
    def decode(cls, r, d):
        return cls(BiLstmSpec(r.cell(d["fwd"]), r.cell(d["bwd"])))


@dataclass
class IntAttnDecoder(_IntLayer):
    spec: QuantAttnDecoderSpec

    @property
    def qp_in(self):
        return self.spec.cell.qp_x

    @property
    def qp_out(self):
        return self.spec.cell.qp_h

    @property
    def input_size(self) -> int:
        return self.spec.cell.input_size

    def links(self, prev, out_qps):
        return [(self.spec.attn.qp_enc, prev, " (attention encoder input)"), (self.qp_in, prev, "")]

    def run(self, x, outputs, float_act):
        return attn_decoder_sequence_int(x, x, self.spec, float_act=float_act)

    def run_exact(self, x, outputs):
        return attn_decoder_sequence_exact(x[0], x[0], self.spec), self.qp_out

    def dequantize(self):
        a = self.spec.attn
        attn = AttentionWeights(
            dequantize(a.w_q_q, a.qp_wq),
            dequantize(a.w_k_q, a.qp_wk),
            dequantize(a.v_q, a.qp_v),
            dequantize(self.spec.w_s_q, self.spec.qp_ws),
        )
        return AttentionDecoderLayer(_dequant_cell(self.spec.cell), attn)

    def encode(self, w, prefix):
        spec = self.spec
        return {
            "type": "attention_decoder",
            "cell": w.cell(f"{prefix}.cell", spec.cell),
            "attn": w.attn(f"{prefix}.attn", spec.attn),
            "tensors": {"w_s": w.tensor(f"{prefix}.w_s", spec.w_s_q)},
            "qparams": {"ws": w.qp(f"{prefix}.ws", spec.qp_ws), "ms": w.qp(f"{prefix}.ms", spec.qp_ms)},
        }

    @classmethod
    def decode(cls, r, d):
        return cls(
            QuantAttnDecoderSpec(
                cell=r.cell(d["cell"]),
                attn=r.attn(d["attn"]),
                w_s_q=r.tensor(d["tensors"]["w_s"]),
                qp_ws=r.qp(d["qparams"]["ws"]),
                qp_ms=r.qp(d["qparams"]["ms"]),
            )
        )


@dataclass
class IntResidual(_IntLayer):
    skip_from: int
    qp_a: QuantParams
    qp_b: QuantParams
    qp_out: QuantParams

    def __post_init__(self):
        self.m_a = ScaledMultiplier.from_real(self.qp_a.scale / self.qp_out.scale)
        self.m_b = ScaledMultiplier.from_real(self.qp_b.scale / self.qp_out.scale)

    @property
    def qp_in(self):
        return self.qp_b

    def links(self, prev, out_qps):
        return [(self.qp_a, out_qps[self.skip_from], " (residual skip operand)"), (self.qp_b, prev, "")]

    def run(self, x, outputs, float_act):
        a = outputs[self.skip_from]
        out = rescale_add([(a.diffs(), self.m_a), (x.diffs(), self.m_b)], self.qp_out.zero_point, 8)
        return QuantTensor(out.astype(np.uint8), self.qp_out)

    def run_exact(self, x, outputs):
        (a, qp_a), (b, qp_b) = outputs[self.skip_from], x
        res = [
            rescale_add_exact(
                [(int(u) - qp_a.zero_point, self.m_a), (int(v) - qp_b.zero_point, self.m_b)],
                self.qp_out.zero_point,
                8,
            )
            for u, v in zip(a.ravel(), b.ravel())
        ]
        return np.array(res, dtype=np.int64).reshape(a.shape), self.qp_out

    def dequantize(self):
        return ResidualAddLayer(self.skip_from)

    def encode(self, w, prefix):
        return {
            "type": "residual_add",
            "skip_from": self.skip_from,
            "qparams": {
                "a": w.qp(f"{prefix}.a", self.qp_a),
                "b": w.qp(f"{prefix}.b", self.qp_b),
                "out": w.qp(f"{prefix}.out", self.qp_out),
            },
        }

    @classmethod
    def decode(cls, r, d):
        q = d["qparams"]
        return cls(d["skip_from"], r.qp(q["a"]), r.qp(q["b"]), r.qp(q["out"]))


@dataclass
class IntProjection(_IntLayer):
    w_q: np.ndarray
    qp_w: QuantParams
    bias_q: np.ndarray
    qp_in: QuantParams

    emits_logits = True
    qp_out = None  # 32-bit logits on the qp_w.scale * qp_in.scale grid

    def __post_init__(self):
        check_accumulator((self.w_q.shape[-1],), self.bias_q)
        self.w_diff = self.w_q.astype(np.int32) - np.int32(self.qp_w.zero_point)

    @property
    def input_size(self) -> int:
        return self.w_q.shape[-1]

    def run(self, x, outputs, float_act):
        return (int_matmul(x.diffs(), self.w_diff.T) + self.bias_q).astype(np.int32)

    def run_exact(self, x, outputs):
        data, qp = x
        return (data - qp.zero_point) @ self.w_diff.T.astype(np.int64) + self.bias_q, None

    def dequantize(self):
        bias = self.bias_q * (self.qp_w.scale * self.qp_in.scale)
        return FinalProjectionLayer(dequantize(self.w_q, self.qp_w), bias)

    def encode(self, w, prefix):
        return {
            "type": "final_projection",
            "tensors": {
                "w": w.tensor(f"{prefix}.w", self.w_q),
                "bias": w.tensor(f"{prefix}.bias", self.bias_q),
            },
            "qparams": {"w": w.qp(f"{prefix}.wq", self.qp_w), "in": w.qp(f"{prefix}.in", self.qp_in)},
        }

    @classmethod
    def decode(cls, r, d):
        t, q = d["tensors"], d["qparams"]
        return cls(r.tensor(t["w"]), r.qp(q["w"]), r.tensor(t["bias"]), r.qp(q["in"]))


@dataclass
class IntModel:
    layers: list
    input_qp: QuantParams | None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_structure(self.layers)

    @property
    def takes_tokens(self) -> bool:
        return bool(self.layers) and self.layers[0].takes_tokens


def convert(
    model: FloatModel,
    ranges: dict,
    *,
    pieces: int = 16,
    cell_bits: int = 8,
    gate_bits: int = 8,
    candidates: int | None = None,
) -> IntModel:
    """Quantize a calibrated float model into an integer model."""
    if pieces < 1:
        raise ValueError("pieces must be at least 1")
    if cell_bits not in (8, 16):
        raise ValueError("cell state bitwidth must be 8 or 16")
    missing = _missing_stages(model, ranges)
    if missing:
        raise ValueError(f"missing calibration ranges: {', '.join(missing)}")

    input_qp = None
    if not model.takes_tokens:
        try:
            input_qp = compute_qparams(*ranges["input"], 8)
        except DegenerateRangeError as e:
            raise DegenerateRangeError(f"stage 'input': {e}") from None

    opts = dict(pieces=pieces, cell_bits=cell_bits, gate_bits=gate_bits, candidates=candidates)
    layers, out_qps = [], []
    prev_qp = input_qp
    for i, layer in enumerate(model.layers):
        int_layer = layer.convert(ranges, f"L{i}", prev_qp, out_qps, **opts)
        layers.append(int_layer)
        prev_qp = int_layer.qp_out
        out_qps.append(prev_qp)
    return IntModel(layers, input_qp, config=dict(pieces=pieces, cell_bits=cell_bits, gate_bits=gate_bits))


def validate_chain(model: IntModel) -> None:
    """Check that every consumer's input qparams equal its producer's output."""
    prev = model.input_qp
    out_qps = []
    for i, layer in enumerate(model.layers):
        for got, want, where in layer.links(prev, out_qps):
            if want is None or got != want:
                raise ValueError(f"qparams chain broken at layer {i}{where}")
        prev = layer.qp_out
        out_qps.append(prev)


def _prepare_input(model: IntModel, seq):
    if model.takes_tokens:
        return _check_tokens(seq, model.layers[0].table_q.shape[0])
    x = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("input sequence must not be empty")
    return QuantTensor.from_real(x, model.input_qp)


def run(model: IntModel, seq, float_act: bool = False):
    """Execute the integer model; returns 32-bit logits when the model ends
    in a projection, otherwise the final quantized sequence.

    With ``QLSTM_FLOAT_TRACE=1`` the run is wrapped in the float-op tracer
    and fails loudly if any floating-point value crosses an integer kernel.
    """
    prepared = _prepare_input(model, seq)
    if floatguard.env_tracing_requested() and not float_act and not floatguard.tracing():
        with floatguard.trace_float_ops() as count:
            result = _run_layers(model, prepared, float_act)
            n = count()
        if n:
            raise RuntimeError(f"{n} floating-point operations detected on the integer path")
        return result
    return _run_layers(model, prepared, float_act)


def _run_layers(model: IntModel, prepared, float_act: bool):
    cur, outputs = prepared, []
    for layer in model.layers:
        cur = layer.run(cur, outputs, float_act)
        outputs.append(cur)
    return cur


def run_reference(model: IntModel, seq):
    """Exact-arithmetic mirror of :func:`run` (the fake-quantization oracle)."""
    cur = _prepare_input(model, seq)
    if not model.takes_tokens:
        cur = (cur.data.astype(np.int64), cur.qp)
    outputs = []
    for layer in model.layers:
        cur = layer.run_exact(cur, outputs)
        outputs.append(cur)
    return cur[0]


def dequantize_model(model: IntModel) -> FloatModel:
    """Float model with the integer model's (dequantized) parameters.

    This is the float reference used by the benchmark: identical weights,
    real arithmetic, exact nonlinearities.
    """
    return FloatModel([layer.dequantize() for layer in model.layers])
