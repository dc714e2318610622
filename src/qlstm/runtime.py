"""Network assembly, calibration, float-to-integer conversion and execution.

A model is an ordered stack of layers (embedding, LSTM/BiLSTM/MadNorm-LSTM,
attention decoder, residual add, final projection).  The float form is used
for calibration and as the accuracy reference; conversion produces an
integer model whose ``run`` touches no floating point and whose outputs are
reproduced bit-exactly by the exact-arithmetic reference engine.

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
    _BIAS_LIMIT,
    BiLstmSpec,
    LstmWeights,
    QuantLstmSpec,
    bilstm_sequence_exact,
    bilstm_sequence_int,
    bilstm_sequence_real,
    lstm_sequence_exact,
    lstm_sequence_int,
    lstm_sequence_real,
)
from .quant import (
    MAX_REDUCE_DIM,
    DegenerateRangeError,
    QuantParams,
    QuantTensor,
    ScaledMultiplier,
    compute_qparams,
    dequantize,
    int_matmul,
    iround,
    quantize,
    rescale_add,
    rescale_add_exact,
)


# ---------------------------------------------------------------------------
# float layers
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingLayer:
    table: np.ndarray  # (vocab, dim)


@dataclass
class LstmLayer:
    weights: LstmWeights
    norm: bool = False


@dataclass
class BiLstmLayer:
    fwd: LstmWeights
    bwd: LstmWeights


@dataclass
class AttentionDecoderLayer:
    cell: LstmWeights
    attn: AttentionWeights


@dataclass
class ResidualAddLayer:
    skip_from: int


@dataclass
class FinalProjectionLayer:
    w: np.ndarray  # (vocab, m); m is 2x the hidden size after a BiLSTM
    bias: np.ndarray

    def __post_init__(self):
        if np.shape(self.w)[-1] > MAX_REDUCE_DIM:
            raise ValueError(f"dimensions above {MAX_REDUCE_DIM} overflow the 32-bit accumulator")


@dataclass
class FloatModel:
    layers: list

    def __post_init__(self):
        for i, layer in enumerate(self.layers):
            if isinstance(layer, EmbeddingLayer) and i != 0:
                raise ValueError("embedding must be the first layer")
            if isinstance(layer, FinalProjectionLayer) and i != len(self.layers) - 1:
                raise ValueError("final projection must be the last layer")
            if isinstance(layer, ResidualAddLayer) and not (0 <= layer.skip_from < i):
                raise ValueError("residual skip must reference an earlier layer")

    @property
    def takes_tokens(self) -> bool:
        return bool(self.layers) and isinstance(self.layers[0], EmbeddingLayer)


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
    outputs = []
    cur = None
    for i, layer in enumerate(model.layers):
        prefix = f"L{i}"
        if isinstance(layer, EmbeddingLayer):
            tokens = _check_tokens(seq, layer.table.shape[0])
            cur = layer.table[tokens]
        elif isinstance(layer, LstmLayer):
            cur = _first_input(cur, seq, obs)
            cur = lstm_sequence_real(
                cur, layer.weights, record=_prefixed(obs, prefix), norm=layer.norm
            )
        elif isinstance(layer, BiLstmLayer):
            cur = _first_input(cur, seq, obs)
            cur = bilstm_sequence_real(cur, layer.fwd, layer.bwd, record=_prefixed(obs, prefix))
        elif isinstance(layer, AttentionDecoderLayer):
            cur = _first_input(cur, seq, obs)
            cur = attn_decoder_sequence_real(
                cur, cur, layer.cell, layer.attn, record=_prefixed(obs, prefix)
            )
        elif isinstance(layer, ResidualAddLayer):
            cur = outputs[layer.skip_from] + cur
            obs(f"{prefix}.out", cur)
        elif isinstance(layer, FinalProjectionLayer):
            cur = cur @ layer.w.T + layer.bias
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
        outputs.append(cur)
    return outputs


def _prefixed(obs, prefix):
    return lambda name, value: obs(f"{prefix}.{name}", value)


def _first_input(cur, seq, obs):
    if cur is not None:
        return cur
    x = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    obs("input", x)
    return x


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
    cell = ["mx", "mh", "pre_sig", "pre_j", "sig", "tanh_j", "p_fc", "p_ij", "c", "tanh_c", "h", "x"]
    norm_sub = [f"{p}.{s}" for p in ("nx", "nh", "nc") for s in ("mu", "xhat", "d", "y")]
    attn = ["q", "k", "sum", "tanh", "e", "exp_in", "exp_out", "alpha", "ctx"]
    stages = []
    for i, layer in enumerate(model.layers):
        prefix = f"L{i}"
        if isinstance(layer, LstmLayer):
            stages += [f"{prefix}.{s}" for s in cell]
            if layer.norm:
                stages += [f"{prefix}.{s}" for s in norm_sub]
        elif isinstance(layer, BiLstmLayer):
            stages += [f"{prefix}.{d}.{s}" for d in ("fwd", "bwd") for s in cell]
        elif isinstance(layer, AttentionDecoderLayer):
            stages += [f"{prefix}.{s}" for s in cell + ["ms"]]
            stages += [f"{prefix}.attn.{s}" for s in attn]
        elif isinstance(layer, ResidualAddLayer):
            stages.append(f"{prefix}.out")
    if not model.takes_tokens:
        stages.append("input")
    return stages


def calibrate(model: FloatModel, batches) -> dict:
    """Observe per-stage ranges over a stream of input sequences.

    Returns the ``{stage: (min, max)}`` map consumed by :func:`convert`.
    Raises if any stage required by the model was never observed.
    """
    obs = CalibrationObserver()
    for seq in batches:
        forward_float(model, seq, record=obs)
    missing = [s for s in required_stages(model) if s not in obs.ranges]
    if missing:
        raise ValueError(f"stages never observed during calibration: {', '.join(missing)}")
    return obs.ranges


# ---------------------------------------------------------------------------
# integer layers
# ---------------------------------------------------------------------------


@dataclass
class IntEmbedding:
    table_q: np.ndarray
    qp: QuantParams


@dataclass
class IntLstm:
    spec: QuantLstmSpec


@dataclass
class IntBiLstm:
    spec: BiLstmSpec


@dataclass
class IntAttnDecoder:
    spec: QuantAttnDecoderSpec


@dataclass
class IntResidual:
    skip_from: int
    qp_a: QuantParams
    qp_b: QuantParams
    qp_out: QuantParams

    def __post_init__(self):
        self.m_a = ScaledMultiplier.from_real(self.qp_a.scale / self.qp_out.scale)
        self.m_b = ScaledMultiplier.from_real(self.qp_b.scale / self.qp_out.scale)


@dataclass
class IntProjection:
    w_q: np.ndarray
    qp_w: QuantParams
    bias_q: np.ndarray
    qp_in: QuantParams

    def __post_init__(self):
        self.w_diff = self.w_q.astype(np.int32) - np.int32(self.qp_w.zero_point)


@dataclass
class IntModel:
    layers: list
    input_qp: QuantParams | None
    config: dict = field(default_factory=dict)

    @property
    def takes_tokens(self) -> bool:
        return bool(self.layers) and isinstance(self.layers[0], IntEmbedding)

    def layer_out_qp(self, i: int) -> QuantParams:
        layer = self.layers[i]
        if isinstance(layer, IntEmbedding):
            return layer.qp
        if isinstance(layer, IntLstm):
            return layer.spec.qp_h
        if isinstance(layer, IntBiLstm):
            return layer.spec.qp_h
        if isinstance(layer, IntAttnDecoder):
            return layer.spec.cell.qp_h
        if isinstance(layer, IntResidual):
            return layer.qp_out
        raise TypeError(f"layer {i} has no quantized output")


def _table_qparams(table: np.ndarray) -> QuantParams:
    return compute_qparams(float(table.min()), float(table.max()), 8)


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

    def sub(prefix: str) -> dict:
        pre = prefix + "."
        out = {k[len(pre):]: v for k, v in ranges.items() if k.startswith(pre)}
        if not out:
            raise ValueError(f"missing calibration ranges for {prefix}")
        return out

    layers = []
    out_qps: list = []
    input_qp = None
    if not model.takes_tokens:
        if "input" not in ranges:
            raise ValueError("missing calibration range for model input")
        try:
            input_qp = compute_qparams(*ranges["input"], 8)
        except DegenerateRangeError as e:
            raise DegenerateRangeError(f"stage 'input': {e}") from None
    prev_qp = input_qp

    common = dict(pieces=pieces, cell_bits=cell_bits, gate_bits=gate_bits, candidates=candidates)
    for i, layer in enumerate(model.layers):
        prefix = f"L{i}"
        if isinstance(layer, EmbeddingLayer):
            qp = _table_qparams(layer.table)
            table_q = np.asarray(quantize(layer.table, qp)).astype(np.uint8)
            layers.append(IntEmbedding(table_q, qp))
            prev_qp = qp
        elif isinstance(layer, LstmLayer):
            spec = QuantLstmSpec.from_float(
                layer.weights, sub(prefix), qp_x=prev_qp, norm=layer.norm, **common
            )
            layers.append(IntLstm(spec))
            prev_qp = spec.qp_h
        elif isinstance(layer, BiLstmLayer):
            r = sub(prefix)
            rf = {k[4:]: v for k, v in r.items() if k.startswith("fwd.")}
            rb = {k[4:]: v for k, v in r.items() if k.startswith("bwd.")}
            spec = BiLstmSpec.from_float(layer.fwd, layer.bwd, rf, rb, qp_x=prev_qp, **common)
            layers.append(IntBiLstm(spec))
            prev_qp = spec.qp_h
        elif isinstance(layer, AttentionDecoderLayer):
            spec = QuantAttnDecoderSpec.from_float(
                layer.cell, layer.attn, sub(prefix), qp_x=prev_qp, qp_enc=prev_qp, **common
            )
            layers.append(IntAttnDecoder(spec))
            prev_qp = spec.cell.qp_h
        elif isinstance(layer, ResidualAddLayer):
            qp_out = compute_qparams(*ranges[f"{prefix}.out"], 8)
            layers.append(IntResidual(layer.skip_from, out_qps[layer.skip_from], prev_qp, qp_out))
            prev_qp = qp_out
        elif isinstance(layer, FinalProjectionLayer):
            qp_w = compute_qparams(float(layer.w.min()), float(layer.w.max()), 8)
            w_q = np.asarray(quantize(layer.w, qp_w)).astype(np.uint8)
            bias_q = np.clip(
                iround(layer.bias / (qp_w.scale * prev_qp.scale)), -_BIAS_LIMIT, _BIAS_LIMIT
            ).astype(np.int32)
            layers.append(IntProjection(w_q, qp_w, bias_q, prev_qp))
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
        out_qps.append(prev_qp)

    return IntModel(
        layers,
        input_qp,
        config=dict(pieces=pieces, cell_bits=cell_bits, gate_bits=gate_bits),
    )


def validate_chain(model: IntModel) -> None:
    """Check that every consumer's input qparams equal its producer's output."""
    prev = model.input_qp
    for i, layer in enumerate(model.layers):
        if isinstance(layer, IntEmbedding):
            prev = layer.qp
            continue
        if isinstance(layer, IntLstm):
            got = layer.spec.qp_x
        elif isinstance(layer, IntBiLstm):
            got = layer.spec.fwd.qp_x
        elif isinstance(layer, IntAttnDecoder):
            got = layer.spec.cell.qp_x
            if layer.spec.attn.qp_enc != prev:
                raise ValueError(f"qparams chain broken at layer {i} (attention encoder input)")
        elif isinstance(layer, IntResidual):
            got = layer.qp_b
            if layer.qp_a != model.layer_out_qp(layer.skip_from):
                raise ValueError(f"qparams chain broken at layer {i} (residual skip operand)")
        elif isinstance(layer, IntProjection):
            got = layer.qp_in
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
        if prev is None or got != prev:
            raise ValueError(f"qparams chain broken at layer {i}")
        prev = model.layer_out_qp(i) if not isinstance(layer, IntProjection) else prev


def _prepare_input(model: IntModel, seq):
    if model.takes_tokens:
        tokens = _check_tokens(seq, model.layers[0].table_q.shape[0])
        return tokens
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
    cur = None
    outputs = []
    for layer in model.layers:
        if isinstance(layer, IntEmbedding):
            cur = QuantTensor(layer.table_q[prepared], layer.qp)
        elif isinstance(layer, IntLstm):
            cur = cur if cur is not None else prepared
            cur = lstm_sequence_int(cur, layer.spec, float_act=float_act)
        elif isinstance(layer, IntBiLstm):
            cur = cur if cur is not None else prepared
            cur = bilstm_sequence_int(cur, layer.spec, float_act=float_act)
        elif isinstance(layer, IntAttnDecoder):
            cur = cur if cur is not None else prepared
            cur = attn_decoder_sequence_int(cur, cur, layer.spec, float_act=float_act)
        elif isinstance(layer, IntResidual):
            a = outputs[layer.skip_from]
            out = rescale_add(
                [(a.diffs(), layer.m_a), (cur.diffs(), layer.m_b)],
                layer.qp_out.zero_point,
                8,
            )
            cur = QuantTensor(out.astype(np.uint8), layer.qp_out)
        elif isinstance(layer, IntProjection):
            acc = int_matmul(cur.diffs(), layer.w_diff.T) + layer.bias_q
            cur = acc.astype(np.int32)
        outputs.append(cur)
    return cur


def run_reference(model: IntModel, seq):
    """Exact-arithmetic mirror of :func:`run` (the fake-quantization oracle)."""
    prepared = _prepare_input(model, seq)
    cur = None
    outputs = []
    for layer in model.layers:
        if isinstance(layer, IntEmbedding):
            cur = (layer.table_q[prepared].astype(np.int64), layer.qp)
        elif isinstance(layer, IntLstm):
            data, _ = cur if cur is not None else (prepared.data.astype(np.int64), prepared.qp)
            cur = (lstm_sequence_exact(data, layer.spec), layer.spec.qp_h)
        elif isinstance(layer, IntBiLstm):
            data, _ = cur if cur is not None else (prepared.data.astype(np.int64), prepared.qp)
            cur = (bilstm_sequence_exact(data, layer.spec), layer.spec.qp_h)
        elif isinstance(layer, IntAttnDecoder):
            data, _ = cur if cur is not None else (prepared.data.astype(np.int64), prepared.qp)
            cur = (attn_decoder_sequence_exact(data, data, layer.spec), layer.spec.cell.qp_h)
        elif isinstance(layer, IntResidual):
            (a, qp_a) = outputs[layer.skip_from]
            (b, qp_b) = cur
            out = np.empty_like(a)
            flat_a, flat_b = a.ravel(), b.ravel()
            res = [
                rescale_add_exact(
                    [(int(x) - qp_a.zero_point, layer.m_a), (int(y) - qp_b.zero_point, layer.m_b)],
                    layer.qp_out.zero_point,
                    8,
                )
                for x, y in zip(flat_a, flat_b)
            ]
            cur = (np.array(res, dtype=np.int64).reshape(a.shape), layer.qp_out)
        elif isinstance(layer, IntProjection):
            data, qp = cur
            acc = (data - qp.zero_point) @ layer.w_diff.T.astype(np.int64) + layer.bias_q
            cur = acc
        outputs.append(cur)
    if isinstance(cur, tuple):
        return cur[0]
    return cur


def dequantize_model(model: IntModel) -> FloatModel:
    """Float model with the integer model's (dequantized) parameters.

    This is the float reference used by the benchmark: identical weights,
    real arithmetic, exact nonlinearities.
    """
    layers = []
    for layer in model.layers:
        if isinstance(layer, IntEmbedding):
            layers.append(EmbeddingLayer(dequantize(layer.table_q, layer.qp)))
        elif isinstance(layer, IntLstm):
            layers.append(LstmLayer(_dequant_cell(layer.spec), norm=layer.spec.norm))
        elif isinstance(layer, IntBiLstm):
            layers.append(BiLstmLayer(_dequant_cell(layer.spec.fwd), _dequant_cell(layer.spec.bwd)))
        elif isinstance(layer, IntAttnDecoder):
            spec = layer.spec
            attn = AttentionWeights(
                dequantize(spec.attn.w_q_q, spec.attn.qp_wq),
                dequantize(spec.attn.w_k_q, spec.attn.qp_wk),
                dequantize(spec.attn.v_q, spec.attn.qp_v),
                dequantize(spec.w_s_q, spec.qp_ws),
            )
            layers.append(AttentionDecoderLayer(_dequant_cell(spec.cell), attn))
        elif isinstance(layer, IntResidual):
            layers.append(ResidualAddLayer(layer.skip_from))
        elif isinstance(layer, IntProjection):
            bias = layer.bias_q * (layer.qp_w.scale * layer.qp_in.scale)
            layers.append(FinalProjectionLayer(dequantize(layer.w_q, layer.qp_w), bias))
    return FloatModel(layers)


def _dequant_cell(spec: QuantLstmSpec) -> LstmWeights:
    return LstmWeights(
        dequantize(spec.w_x_q, spec.qp_wx),
        dequantize(spec.w_h_q, spec.qp_wh),
        spec.bias_q * (spec.qp_wx.scale * spec.qp_x.scale),
    )
