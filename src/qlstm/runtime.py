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
* an integer layer has ``qp_in``/``qp_out``, ``links`` (the chain checks),
  ``cells`` and ``decoder`` (the specs that its part of the engine is built
  from; a layer of cells reads its ports from them), ``run``, ``run_exact``
  (its exact oracle) and ``dequantize``;
  ``run`` takes and returns raw arrays (uint8/uint16 storage, or int32
  logits), ``run_exact`` int64 arrays;
* no layer has a codec for the manifest: ``serialize`` stores each of its
  fields under the field's name, in the form that the field's type decides
  (qparams, PWL tables, arrays, nested dataclasses), and maps the type tags
  to the classes.

``outputs`` holds the outputs of the layers already run, for residuals;
:func:`run` drops each one once no later layer reads it.
Per-stage quantization parameters chain through the stack: every layer
consumes its producer's output qparams and width.  Building an
:class:`IntModel` checks that chain once, so a layer reads the zero points
of its input from its own qparams.

The integer layers' specs are data: stored tensors, qparams, PWL tables and
the scalar multipliers the oracle reads.  What the kernels run on (each
LSTM layer's lanes, an attention decoder's constants) is the model's
``engine``, which :func:`engine` builds once when the model is built, and
:func:`run` hands each layer its own part of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from .attention import (
    ATTN_STAGES,
    AttentionConsts,
    AttentionWeights,
    QuantAttnDecoderSpec,
    attn_decoder_sequence_exact,
    attn_decoder_sequence_int,
    attn_decoder_sequence_real,
)
from .lstm import (
    CELL_NORMS,
    CELL_STAGES,
    LstmLanes,
    LstmWeights,
    QuantLstmSpec,
    bilstm_sequence_exact,
    bilstm_sequence_int,
    bilstm_sequence_real,
    lstm_sequence_exact,
    lstm_sequence_int,
    lstm_sequence_real,
)
from .madnorm import NORM_STAGES, _noop, scoped
from .pwl import ACTIVATIONS, PwlTable, build_lut
from .quant import (
    DegenerateRangeError,
    QuantParams,
    QuantTensor,
    Rescale,
    centred,
    check_accumulator,
    check_dtype,
    check_int,
    compute_qparams,
    dequantize,
    int_matmul,
    narrowest,
    prefix_errors,
    quantize_bias,
    quantize_in_place,
    quantize_weights,
    rescale_add,
    rescale_add_exact,
    stage_qparams,
    sub_ranges,
    term_multiplier,
)

class _Layer:
    """Where a layer may sit in a stack; shared by the float and integer forms."""

    takes_tokens = False  # consumes token ids, so it must come first
    emits_logits = False  # ends the stack


def _check_structure(layers) -> None:
    if not layers:
        raise ValueError("a model needs at least one layer")
    for i, layer in enumerate(layers):
        if layer.takes_tokens and i != 0:
            raise ValueError("embedding must be the first layer")
        if layer.emits_logits and i != len(layers) - 1:
            raise ValueError("final projection must be the last layer")
        skip = getattr(layer, "skip_from", None)
        if skip is not None:
            check_int("skip_from", skip)
            if not 0 <= skip < i:
                raise ValueError("residual skip must reference an earlier layer")


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
        tokens = np.asarray(tokens)
        for seq in tokens if tokens.ndim == 2 else [tokens]:
            _check_tokens(seq, self.table.shape[0])
        return self.table[tokens]

    def stages(self, prefix):
        return []

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        return IntEmbedding(*quantize_weights(self.table))


@dataclass
class LstmLayer(_Layer):
    weights: LstmWeights
    norm: bool = False

    def forward(self, x, outputs, record):
        return lstm_sequence_real(x, self.weights, record=record, norm=self.norm)

    def stages(self, prefix):
        norms = [f"n{k}.{s}" for k in CELL_NORMS for s in NORM_STAGES] if self.norm else []
        return [f"{prefix}.{s}" for s in [*CELL_STAGES, *norms]]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        spec = QuantLstmSpec.from_float(self.weights, sub_ranges(ranges, prefix), qp_x=qp_in, norm=self.norm, **opts)
        return IntLstm(spec)


@dataclass
class BiLstmLayer(_Layer):
    fwd: LstmWeights
    bwd: LstmWeights

    def forward(self, x, outputs, record):
        return bilstm_sequence_real(x, self.fwd, self.bwd, record=record)

    def stages(self, prefix):
        return [f"{prefix}.{d}.{s}" for d in ("fwd", "bwd") for s in CELL_STAGES]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        # the directions' hidden states are concatenated, so they share one grid over both ranges
        (a, b), (c, d) = ranges[f"{prefix}.fwd.h"], ranges[f"{prefix}.bwd.h"]
        qp_h = stage_qparams({"h": (float(np.minimum(a, c)), float(np.maximum(b, d)))}, "h", CELL_STAGES["h"])
        cells = []
        for side, w in (("fwd", self.fwd), ("bwd", self.bwd)):
            with prefix_errors(side):
                r = sub_ranges(ranges, f"{prefix}.{side}")
                cells.append(QuantLstmSpec.from_float(w, r, qp_x=qp_in, qp_h=qp_h, **opts))
        return IntBiLstm(*cells)


@dataclass
class AttentionDecoderLayer(_Layer):
    cell: LstmWeights
    attn: AttentionWeights

    def __post_init__(self):
        # the decoder attends over its own input, from its own hidden state
        a, c = self.attn, self.cell
        if (a.m_dec, a.m_enc) != (c.hidden_size, c.input_size):
            raise ValueError(
                f"attention for a {a.m_dec}-unit decoder on {a.m_enc} inputs does not fit "
                f"a {c.hidden_size}-unit cell on {c.input_size} inputs"
            )

    def forward(self, x, outputs, record):
        return attn_decoder_sequence_real(x, x, self.cell, self.attn, record=record)

    def stages(self, prefix):
        return [f"{prefix}.{s}" for s in [*CELL_STAGES, "ms"]] + [f"{prefix}.attn.{s}" for s in ATTN_STAGES]

    def convert(self, ranges, prefix, qp_in, out_qps, **opts):
        spec = QuantAttnDecoderSpec.from_float(self.cell, self.attn, sub_ranges(ranges, prefix), qp_x=qp_in, **opts)
        return IntAttnDecoder(spec)


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


@dataclass
class FloatModel:
    layers: list

    def __post_init__(self):
        _check_structure(self.layers)

    @property
    def takes_tokens(self) -> bool:
        return self.layers[0].takes_tokens


class _StageView:
    """Records stage values under one name prefix of a :class:`CalibrationObserver`.

    A call appends the value to its stage's buffer in the observer; the full
    stage name is built once per view and stage, not per call.
    """

    def __init__(self, obs: "CalibrationObserver", prefix: str):
        self._obs = obs
        self._prefix = prefix
        self._buffers = {}  # stage name -> the observer's buffer for prefix + name
        self._views = {}

    def __call__(self, name: str, value) -> None:
        v = value if type(value) is np.ndarray else np.asarray(value)
        try:
            self._buffers[name].append(v)
        except KeyError:
            buf = self._buffers[name] = self._obs._pending.setdefault(self._prefix + name, [])
            buf.append(v)
        obs = self._obs
        obs._pending_size += v.size
        if obs._pending_size > obs.PENDING_LIMIT:
            obs.flush()

    def view(self, prefix: str) -> "_StageView":
        """The view that records under ``prefix.`` inside this one."""
        try:
            return self._views[prefix]
        except KeyError:
            view = self._views[prefix] = _StageView(self._obs, f"{self._prefix}{prefix}.")
            return view


class CalibrationObserver(_StageView):
    """Running per-stage min/max over observed activations.

    A call only buffers its value; :meth:`flush` (which :func:`calibrate`
    runs after every sequence, and reading ``ranges`` runs too) reduces each
    stage's buffered values to one min and max.  So that a long sequence
    cannot buffer without bound, a call that brings the buffer above
    ``PENDING_LIMIT`` elements flushes it too.  A recorded array must not be
    changed in place before it is flushed.  Empty values are ignored, and a
    NaN value makes its stage's range NaN.  ``view(prefix)`` records under a
    name prefix (the model's layers, a BiLSTM's directions) and is cached,
    so a recorded value costs one Python call.
    """

    PENDING_LIMIT = 1 << 20

    def __init__(self):
        super().__init__(self, "")
        self._ranges: dict = {}
        self._pending: dict = {}  # stage name -> buffered values; views hold these lists
        self._pending_size = 0

    def flush(self) -> None:
        for name, values in self._pending.items():
            if not values:
                continue
            if name in self._ranges:
                values.append(self._ranges[name])
            v = np.concatenate(values, axis=None, dtype=np.float64)
            if v.size:
                self._ranges[name] = (float(v.min()), float(v.max()))
            values.clear()
        self._pending_size = 0

    @property
    def ranges(self) -> dict:
        self.flush()
        return self._ranges


def forward_float(model: FloatModel, seq, record=None) -> list:
    """Run the float model, returning every layer's output sequence.

    ``seq`` is one sequence, ``(T,)`` token ids or ``(T, n)`` frames, or a
    stack of equal-length ones, ``(B, T)`` or ``(B, T, n)``, run as one pass
    whose outputs have the leading ``B`` axis; each sequence's outputs have
    the bits it gets alone.
    """
    obs = record if record is not None else _noop
    cur = seq
    if not model.takes_tokens:
        cur = np.atleast_2d(np.asarray(seq, dtype=np.float64))
        obs("input", cur)
    outputs = []
    for i, layer in enumerate(model.layers):
        cur = layer.forward(cur, outputs, scoped(obs, f"L{i}"))
        outputs.append(cur)
    return outputs


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


#: The most equal-shape calibration sequences :func:`calibrate` runs as one
#: stacked :func:`forward_float` pass.
CALIBRATION_STACK = 8


def _calibration_passes(model: FloatModel, batches):
    """Each run of consecutive sequences of one shape and dtype, ``(T,)``
    tokens or ``(T, n)`` frames, as stacks of up to
    :data:`CALIBRATION_STACK`; a run of one, and a sequence of any other
    rank, passes alone."""
    ndim = 1 if model.takes_tokens else 2

    def run_key(seq):  # a sequence of another rank gets a key equal to no other
        return (seq.shape, seq.dtype) if seq.ndim == ndim else object()

    for _, run in groupby(map(np.asarray, batches), run_key):
        while stack := list(islice(run, CALIBRATION_STACK)):
            yield stack[0] if len(stack) == 1 else np.stack(stack)


def calibrate(model: FloatModel, batches) -> dict:
    """Observe per-stage ranges over a stream of input sequences.

    Returns the ``{stage: (min, max)}`` map consumed by :func:`convert`.
    Raises if any stage required by the model was never observed.
    Consecutive sequences of one shape run as one stacked pass; a stage's
    min and max do not depend on the order its values are seen in, so the
    ranges are those of running each sequence alone.
    """
    obs = CalibrationObserver()
    for seq in _calibration_passes(model, batches):
        forward_float(model, seq, record=obs)
        obs.flush()
    missing = _missing_stages(model, obs.ranges)
    if missing:
        raise ValueError(f"stages never observed during calibration: {', '.join(missing)}")
    return obs.ranges


# ---------------------------------------------------------------------------
# integer layers
# ---------------------------------------------------------------------------


class _IntLayer(_Layer):
    cells = ()  # the LSTM cells that the layer runs as the lanes of one kernel
    decoder = None  # the attention decoder spec whose attention the layer runs

    def links(self, prev, outs) -> list:
        """``(consumed, produced, where)`` ports that must agree, a port being
        ``(qparams, width)``: ``prev`` is the previous layer's output port
        (the model input's, of any width, for the first layer) and ``outs``
        every earlier layer's."""
        return [] if self.qp_in is None else [((self.qp_in, self.input_size), prev, "")]

    def port_out(self, prev) -> tuple:
        return self.qp_out, self.output_size


@dataclass
class IntEmbedding(_IntLayer):
    table_q: np.ndarray
    qp_out: QuantParams

    takes_tokens = True
    qp_in = None  # consumes token ids, not a layer's output

    def __post_init__(self):
        if self.qp_out.bitwidth != 8:
            raise ValueError("embedding output must be 8-bit")
        check_dtype(np.uint8, table_q=self.table_q)

    @property
    def output_size(self) -> int:
        return self.table_q.shape[1]

    def run(self, tokens, outputs, part):
        return self.table_q[tokens]

    def run_exact(self, tokens, outputs):
        return self.table_q[tokens].astype(np.int64)

    def dequantize(self):
        return EmbeddingLayer(dequantize(self.table_q, self.qp_out))


class _CellLayer(_IntLayer):
    """A layer of LSTM cells, whose ports are its cells': it takes the first
    cell's input, and emits every cell's hidden state side by side on the
    first cell's ``qp_h``, which the cells share."""

    @property
    def qp_in(self):
        return self.cells[0].qp_x

    @property
    def input_size(self) -> int:
        return self.cells[0].input_size

    @property
    def qp_out(self):
        return self.cells[0].qp_h

    @property
    def output_size(self) -> int:
        return sum(cell.hidden_size for cell in self.cells)


@dataclass
class IntLstm(_CellLayer):
    spec: QuantLstmSpec

    @property
    def cells(self) -> tuple:
        return (self.spec,)

    def run(self, x, outputs, lanes):
        return lstm_sequence_int(x, lanes)

    def run_exact(self, x, outputs):
        return lstm_sequence_exact(x, self.spec)

    def dequantize(self):
        return LstmLayer(_dequant_cell(self.spec), norm=self.spec.norm)


@dataclass
class IntBiLstm(_CellLayer):
    """Forward and backward cells on one input grid, whose concatenated hidden states share one grid."""

    fwd: QuantLstmSpec
    bwd: QuantLstmSpec

    def __post_init__(self):
        for qp in ("qp_x", "qp_h"):
            if getattr(self.fwd, qp) != getattr(self.bwd, qp):
                raise ValueError(f"forward and backward cells must share {qp}")

    @property
    def cells(self) -> tuple:
        return self.fwd, self.bwd

    def run(self, x, outputs, lanes):
        return bilstm_sequence_int(x, lanes)

    def run_exact(self, x, outputs):
        return bilstm_sequence_exact(x, self.fwd, self.bwd)

    def dequantize(self):
        return BiLstmLayer(_dequant_cell(self.fwd), _dequant_cell(self.bwd))


@dataclass
class IntAttnDecoder(_CellLayer):
    spec: QuantAttnDecoderSpec

    @property
    def cells(self) -> tuple:
        return (self.spec.cell,)

    @property
    def decoder(self):
        return self.spec

    def run(self, x, outputs, part):
        return attn_decoder_sequence_int(x, x, *part)

    def run_exact(self, x, outputs):
        return attn_decoder_sequence_exact(x, x, self.spec)

    def dequantize(self):
        d = self.spec
        attn = AttentionWeights(
            dequantize(d.w_q_q, d.qp_wq),
            dequantize(d.w_k_q, d.qp_wk),
            dequantize(d.v_q, d.qp_v),
            dequantize(d.w_s_q, d.qp_ws),
        )
        return AttentionDecoderLayer(_dequant_cell(d.cell), attn)


@dataclass
class IntResidual(_IntLayer):
    """``clamp(round(m_a (a - za)) + round(m_b (b - zb)) + zp, 0, 255)`` of
    the skip operand ``a`` and the input ``b``, each term rounded on its own
    as :func:`~qlstm.quant.rescale_add` rounds it.  Each operand's term
    over all 256 storage values is a table, built by the stage's own
    ``rescale_add`` with the other term 0 and no bounds, so a run's two
    gathers are the stage bit for bit; ``t_a`` also holds ``zp``.  Both
    tables take the narrowest integer type that holds every sum of two of
    their entries."""

    skip_from: int
    qp_a: QuantParams
    qp_b: QuantParams
    qp_out: QuantParams

    def __post_init__(self):
        if self.qp_out.bitwidth != 8:
            raise ValueError("residual output must be 8-bit")
        self.m_a = term_multiplier("out", self.qp_a.scale / self.qp_out.scale, 255)
        self.m_b = term_multiplier("out", self.qp_b.scale / self.qp_out.scale, 255)
        v, zero = np.arange(256, dtype=np.int64), np.zeros(256, dtype=np.int64)
        terms = Rescale.of([[self.m_a], [self.m_b]])
        t_a = rescale_add(np.stack((v - self.qp_a.zero_point, zero)), terms) + self.qp_out.zero_point
        t_b = rescale_add(np.stack((zero, v - self.qp_b.zero_point)), terms)
        dtype = narrowest(np.array([t_a.min() + t_b.min(), t_a.max() + t_b.max()])).dtype
        self.t_a, self.t_b = t_a.astype(dtype), t_b.astype(dtype)

    @property
    def qp_in(self):
        return self.qp_b

    def links(self, prev, outs):
        # both operands must be as wide as the previous layer's output
        width = prev[1]
        return [((self.qp_a, width), outs[self.skip_from], " (residual skip operand)"), ((self.qp_b, width), prev, "")]

    def port_out(self, prev) -> tuple:
        return self.qp_out, prev[1]

    def run(self, x, outputs, part):
        def add(a, b):
            total = self.t_a.take(a)
            total += self.t_b.take(b)
            np.maximum(total, 0, out=total)
            return np.minimum(total, 255, out=total)

        return _by_blocks(add, np.uint8, outputs[self.skip_from], x)

    def run_exact(self, x, outputs):
        za, zb = self.qp_a.zero_point, self.qp_b.zero_point
        res = [
            rescale_add_exact([(int(u) - za, self.m_a), (int(v) - zb, self.m_b)], self.qp_out.zero_point, 8)
            for u, v in zip(outputs[self.skip_from].ravel(), x.ravel())
        ]
        return np.array(res, dtype=np.int64).reshape(x.shape)

    def dequantize(self):
        return ResidualAddLayer(self.skip_from)


@dataclass
class IntProjection(_IntLayer):
    w_q: np.ndarray
    qp_w: QuantParams
    bias_q: np.ndarray
    qp_in: QuantParams

    emits_logits = True
    qp_out = None  # 32-bit logits on the qp_w.scale * qp_in.scale grid

    def __post_init__(self):
        if self.qp_in.bitwidth != 8:
            raise ValueError("projection input must be 8-bit")
        check_dtype(np.uint8, w_q=self.w_q)
        check_dtype(np.int32, bias_q=self.bias_q)
        if self.w_q.ndim != 2 or self.bias_q.shape != self.w_q.shape[:1]:
            raise ValueError(f"bias_q of shape {self.bias_q.shape} does not fit shape {self.w_q.shape} of w_q")
        check_accumulator((self.w_q.shape[-1],), self.bias_q)
        self.w_diff = centred(self.w_q, self.qp_w)

    @property
    def input_size(self) -> int:
        return self.w_q.shape[-1]

    @property
    def output_size(self) -> int:
        return self.w_q.shape[0]

    def run(self, x, outputs, part):
        def project(rows):
            return int_matmul(rows - np.int32(self.qp_in.zero_point), self.w_diff.T) + self.bias_q

        return _by_blocks(project, np.int32, x)

    def run_exact(self, x, outputs):
        return (x - self.qp_in.zero_point) @ self.w_diff.T.astype(np.int64) + self.bias_q

    def dequantize(self):
        bias = self.bias_q * (self.qp_w.scale * self.qp_in.scale)
        return FinalProjectionLayer(dequantize(self.w_q, self.qp_w), bias)


@dataclass
class IntModel:
    """An integer layer stack whose structure, qparams chain and widths are
    checked when it is built (:func:`validate_chain`), and which then builds
    its ``engine`` (:func:`engine`) on its PWL tables' grids.  ``layers`` is
    kept as a tuple, so no layer joins the stack unchecked.  ``frees[i]``
    lists the outputs that no layer after ``i`` reads, which :func:`run`
    drops once layer ``i`` has run."""

    layers: tuple
    input_qp: QuantParams | None

    def __post_init__(self):
        self.layers = tuple(self.layers)
        _check_structure(self.layers)
        validate_chain(self)
        self.engine = engine(self, _pwl_grid)
        self.frees = _last_reads(self.layers)

    @property
    def takes_tokens(self) -> bool:
        return self.layers[0].takes_tokens


def convert(
    model: FloatModel,
    ranges: dict,
    *,
    pieces: int = 16,
    cell_bits: int = 8,
    gate_bits: int = 8,
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

    opts = dict(pieces=pieces, cell_bits=cell_bits, gate_bits=gate_bits)
    layers, out_qps = [], []
    prev_qp = input_qp
    for i, layer in enumerate(model.layers):
        try:
            int_layer = layer.convert(ranges, f"L{i}", prev_qp, out_qps, **opts)
        except ValueError as e:
            raise type(e)(f"layer {i}: {e}") from None
        layers.append(int_layer)
        prev_qp = int_layer.qp_out
        out_qps.append(prev_qp)
    return IntModel(layers, input_qp)


def _pwl_grid(t: PwlTable) -> np.ndarray:
    return t.grid_out


def _exact_grid(t: PwlTable) -> np.ndarray:
    return build_lut(ACTIVATIONS[t.fn_name], t.in_qp, t.out_qp).astype(t.grid_out.dtype)


def engine(model: IntModel, grid) -> list:
    """Every run-time structure of ``model``, one part per layer, which
    :func:`run` hands to that layer: the :class:`~qlstm.lstm.LstmLanes` of
    the cells it runs as one kernel (pair tables, gate rows, MadNorm rows),
    and for an attention decoder ``(lanes, AttentionConsts)``; ``None`` for
    a layer with no cells.  ``grid`` maps each PWL table to the outputs that
    its gathers read.  Building an :class:`IntModel` calls this once on the
    tables' own grids, and :func:`exact_activations` on ``build_lut``'s."""
    parts = []
    for i, layer in enumerate(model.layers):
        try:
            part = LstmLanes(layer.cells, grid) if layer.cells else None
            if layer.decoder is not None:
                part = part, AttentionConsts(layer.decoder, grid)
        except ValueError as e:
            raise type(e)(f"layer {i}: {e}") from None
        parts.append(part)
    return parts


def _last_reads(layers) -> tuple:
    """For each layer, the indices of the earlier outputs that it is the
    last layer to read: an output is read by the next layer and by every
    residual that skips from it.  The last layer's output is read by none."""
    last = list(range(1, len(layers) + 1))
    for i, layer in enumerate(layers):
        skip = getattr(layer, "skip_from", None)
        if skip is not None:
            last[skip] = max(last[skip], i)
    return tuple(tuple(j for j, reader in enumerate(last) if reader == i) for i in range(len(layers)))


def validate_chain(model: IntModel) -> None:
    """Check that every consumer's input qparams and width equal its producer's output."""
    prev, outs = (model.input_qp, None), []
    for i, layer in enumerate(model.layers):
        for (qp, width), (want_qp, want_width), where in layer.links(prev, outs):
            if want_qp is None or qp != want_qp:
                raise ValueError(f"qparams chain broken at layer {i}{where}")
            if want_width is not None and width != want_width:
                raise ValueError(f"layer {i}{where} takes {width} values per frame, but its input has {want_width}")
        prev = layer.port_out(prev)
        outs.append(prev)


#: Input elements per block of a whole-sequence stage.  :func:`run`
#: quantizes the input frames, and applies a residual add and the final
#: projection, one block of rows at a time (:func:`_by_blocks`), so that
#: their float64 and int64 temporaries are a few blocks in size at any
#: sequence length.  Each block costs about a dozen numpy calls: against
#: whole sequences, a bilstm16 run took 2.6%, 1.1% and 0.4% longer with
#: 1,024, 2,048 and 4,096 elements per block, and its peak was 0.108,
#: 0.126 and 0.191 MB (0.787 MB whole), on a 2-vCPU Xeon, with the residual
#: add of that time, which rescaled both operands per block.
BLOCK_ELEMENTS = 2048


def _by_blocks(stage, dtype, *arrays) -> np.ndarray:
    """``stage(*arrays)`` as ``dtype``, run on consecutive blocks of rows of
    the 2-D ``arrays`` (equal row counts): ``max(1, BLOCK_ELEMENTS //
    width)`` rows per block, ``width`` being the arrays' row lengths added
    up.  ``stage`` maps a block of rows to as many output rows; each output
    block is written into one array of ``dtype``.  Arrays that fit one
    block go to ``stage`` whole.

    The blocks are handed over as lists: a generator expression per block
    would leave about 50 bytes in a reference cycle until the garbage
    collector runs, so the scratch would grow with the block count."""
    rows = len(arrays[0])
    step = max(1, BLOCK_ELEMENTS // sum([a.shape[-1] for a in arrays]))
    first = stage(*[a[:step] for a in arrays])
    if rows <= step:
        return first.astype(dtype, copy=False)
    out = np.empty((rows, *first.shape[1:]), dtype=dtype)
    out[:step] = first
    del first  # its rows are in out: freed before the next block's temporaries
    for start in range(step, rows, step):
        out[start : start + step] = stage(*[a[start : start + step] for a in arrays])
    return out


def _prepare_input(model: IntModel, seq) -> np.ndarray:
    """Token ids, or the frames as raw storage on ``model.input_qp``,
    quantized block by block (:func:`_by_blocks`); the caller's frames are
    read, never written."""
    if model.takes_tokens:
        return _check_tokens(seq, model.layers[0].table_q.shape[0])
    x = np.atleast_2d(np.asarray(seq))
    width = model.layers[0].input_size
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"input frames must have {width} features each, not shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("input sequence must not be empty")
    qp = model.input_qp

    def quantize_block(frames):
        q = np.array(frames, dtype=np.float64)  # a copy of the block, quantized in place
        if not np.isfinite(q).all():
            raise ValueError("input frames must be finite (found NaN or inf)")
        return quantize_in_place(q, qp)

    return _by_blocks(quantize_block, qp.storage_dtype, x)


def run(model: IntModel, seq):
    """Execute the integer model; returns 32-bit logits when the model ends
    in a projection, otherwise the final sequence's storage together with
    its qparams (``.data`` and ``.qp``).

    A run holds a layer's output only until its last reader has run
    (``model.frees``): the input storage goes once the first layer has run,
    and a residual's skip operand once the residual has."""
    cur, outputs = _prepare_input(model, seq), []
    for layer in model.layers:  # its index is len(outputs): a zip would allocate per run
        i = len(outputs)
        cur = layer.run(cur, outputs, model.engine[i])
        outputs.append(cur)
        for j in model.frees[i]:
            outputs[j] = None
    qp = model.layers[-1].qp_out
    return cur if qp is None else QuantTensor(cur, qp)


def exact_activations(model: IntModel) -> IntModel:
    """``model`` with an engine whose activation gathers read the true
    functions (``build_lut`` on each table's grids): the configuration
    without quantized activations, run by the same integer ``run``.  It
    shares ``model``'s layers, so ``run_reference`` and ``save`` see the PWL
    form; ``model`` itself is not changed."""
    exact = object.__new__(IntModel)  # the layers are checked already: only the engine is new
    vars(exact).update(vars(model), engine=engine(model, _exact_grid))
    return exact


def run_reference(model: IntModel, seq) -> np.ndarray:
    """Exact-arithmetic mirror of :func:`run` (the fake-quantization oracle);
    returns the raw output as int64."""
    cur, outputs = _prepare_input(model, seq).astype(np.int64), []
    for layer in model.layers:
        cur = layer.run_exact(cur, outputs)
        outputs.append(cur)
    return cur


def dequantize_model(model: IntModel) -> FloatModel:
    """Float model with the integer model's (dequantized) parameters.

    This is the float reference used by the benchmark: identical weights,
    real arithmetic, exact nonlinearities.
    """
    return FloatModel([layer.dequantize() for layer in model.layers])
