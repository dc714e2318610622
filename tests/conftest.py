import gzip
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

from qlstm import attention as att
from qlstm import lstm as L
from qlstm import quant, runtime, serialize
from qlstm.madnorm import _noop, scoped
from qlstm.pwl import ACTIVATIONS, build_pwl

settings.register_profile(
    "suite", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def read_manifest(path) -> dict:
    """A saved manifest's document, inflated and parsed."""
    return json.loads(gzip.decompress(Path(path).read_bytes()))


def write_manifest(path, doc, *, reseal=True, dumps=json.dumps) -> None:
    """Write ``doc`` as the manifest at ``path``, as ``dumps`` prints it and
    compressed as ``save`` writes it; with ``reseal`` its seal is first
    computed afresh over the blob next to it."""
    if reseal:
        doc["seal"] = serialize.seal(doc, Path(f"{path}.blob").read_bytes())
    Path(path).write_bytes(gzip.compress(dumps(doc).encode("utf-8"), mtime=0))


def edit_manifest(path, edit) -> None:
    """Apply ``edit(doc)`` to a saved manifest and re-seal it, so that
    ``load`` gets past the seal to the check the edit is aimed at."""
    doc = read_manifest(path)
    edit(doc)
    write_manifest(path, doc)


def stored(x, qp) -> np.ndarray:
    """``x`` quantized onto ``qp`` in its storage dtype, as a layer holds it."""
    return quant.quantize(x, qp).astype(qp.storage_dtype)


def lanes_of(*specs) -> L.LstmLanes:
    """The cells as the lanes of one kernel, on their PWL tables' own grids,
    as a model's engine builds them."""
    return L.LstmLanes(specs, lambda t: t.grid_out)


def attn_consts(dec) -> att.AttentionConsts:
    """The attention decoder's run-time constants on its PWL tables' own
    grids, as a model's engine builds them."""
    return att.AttentionConsts(dec, lambda t: t.grid_out)


def decoder_parts(dec) -> tuple:
    """The attention decoder's part of a model's engine: its cell's lanes and
    its attention constants."""
    return lanes_of(dec.cell), attn_consts(dec)


def random_cell(rng, m, n, scale=0.5):
    return L.LstmWeights(
        rng.normal(0, scale, (4 * m, n)),
        rng.normal(0, scale, (4 * m, m)),
        rng.normal(0, 0.15, 4 * m),
    )


def observe(fn, *args, **kwargs) -> dict:
    """Per-stage ranges of one float-path call, recorded by a CalibrationObserver."""
    obs = runtime.CalibrationObserver()
    fn(*args, record=obs, **kwargs)
    return obs.ranges


def with_gate_sum_grid(spec, qp) -> L.QuantLstmSpec:
    """``spec`` with both gate sums on the grid ``qp``, and its sigmoid and
    candidate tanh tables built on that grid as conversion builds them."""
    pieces = spec.pwl_sig.n_pieces
    sig, tanh_j = build_pwl("sigmoid", qp, spec.qp_sig, pieces), build_pwl("tanh", qp, spec.qp_tanh_j, pieces)
    return replace(spec, qp_pre_sig=qp, qp_pre_j=qp, pwl_sig=sig, pwl_tanh_j=tanh_j)


def bilstm_layer(wf, wb, xs, **opts) -> runtime.IntBiLstm:
    """The integer layer that a BiLSTM of the cells ``wf`` and ``wb``
    converts to, calibrated on the frames ``xs``, as layer 0 of a model."""
    layer = runtime.BiLstmLayer(wf, wb)
    ranges = {f"L0.{k}": v for k, v in observe(layer.forward, xs, []).items()}
    return layer.convert(ranges, "L0", quant.compute_qparams(*ranges["L0.fwd.x"], 8), [], **opts)


def attend_real(h, enc, w, record=_noop):
    """One float attention step over keys projected first, as the decoder
    projects them once per sequence."""
    return att.attention_real(h, enc, att.attention_keys_real(enc, w, record), w, record)


def random_lstm_config(rng, *, norm=False, cell_bits=8, gate_bits=8, pieces=6, T=None, m=None, n=None):
    """Random weights + inputs, calibrated on those inputs, spec built from them."""
    m = m if m is not None else int(rng.integers(2 if norm else 1, 5))
    n = n if n is not None else int(rng.integers(1, 5))
    T = T if T is not None else int(rng.integers(2, 5))
    w = random_cell(rng, m, n)
    xs = rng.normal(0, 1, (T, n))
    ranges = observe(L.lstm_sequence_real, xs, w, norm=norm)
    spec = L.QuantLstmSpec.from_float(
        w, ranges, cell_bits=cell_bits, gate_bits=gate_bits, pieces=pieces, norm=norm
    )
    return w, xs, spec


def random_attention(rng):
    """Random attention weights (scale 0.6) of 2-5 units for a decoder of
    2-5 units on 2-5-wide frames, then 2-8 frames ``xs`` and a decoder
    state ``h``: ``(weights, xs, h)``.  The draws keep this order, which the
    tables of ``test_pwl.engine_16bit_tables`` are pinned to."""
    m_att, m, n, T = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (2, 6), (2, 6), (2, 9)))
    w = att.AttentionWeights(
        rng.normal(0, 0.6, (m_att, m)),
        rng.normal(0, 0.6, (m_att, n)),
        rng.normal(0, 0.6, m_att),
        rng.normal(0, 0.6, (4 * m, n)),
    )
    return w, rng.normal(0, 1, (T, n)), rng.normal(0, 1, m)


def random_decoder(rng, *, pieces=10, gate_bits=8):
    """A random attention decoder over its own input: the weights, frames
    and state of :func:`random_attention`, and an m-unit cell on them.  Its
    ranges cover the decoder's float run over ``xs`` and one attention step
    from ``h`` over them, so ``h`` and ``xs`` lie on the cell's ``qp_h`` and
    ``qp_x``.  Returns ``(cell weights, attention weights, xs, h, spec)``."""
    attn_w, xs, h = random_attention(rng)
    cell = random_cell(rng, attn_w.m_dec, attn_w.m_enc)

    def float_run(record):
        att.attn_decoder_sequence_real(xs, xs, cell, attn_w, record)
        record("h", h)
        attend_real(h, xs, attn_w, scoped(record, "attn"))

    ranges = observe(float_run)
    dec = att.QuantAttnDecoderSpec.from_float(
        cell, attn_w, ranges, qp_x=quant.compute_qparams(*ranges["x"], 8), pieces=pieces, gate_bits=gate_bits
    )
    return cell, attn_w, xs, h, dec


def token_model(rng, arch, vocab=6, emb=3, m=3, frames=None):
    """Build a small float token model; ``arch`` names the middle layers.
    With ``frames``, the model takes frames that wide instead of tokens."""
    layers = [] if frames else [runtime.EmbeddingLayer(rng.normal(0, 1, (vocab, emb)))]
    width = frames or emb
    for kind in arch:
        if kind == "lstm":
            layers.append(runtime.LstmLayer(random_cell(rng, m, width)))
            width = m
        elif kind == "lstm_norm":
            layers.append(runtime.LstmLayer(random_cell(rng, m, width), norm=True))
            width = m
        elif kind == "bilstm":
            layers.append(runtime.BiLstmLayer(random_cell(rng, m, width), random_cell(rng, m, width)))
            width = 2 * m
        elif kind == "residual":
            layers.append(runtime.ResidualAddLayer(skip_from=len(layers) - 2))
        elif kind == "attn":
            attn = att.AttentionWeights(
                rng.normal(0, 0.5, (m, m)),
                rng.normal(0, 0.5, (m, width)),
                rng.normal(0, 0.5, m),
                rng.normal(0, 0.5, (4 * m, width)),
            )
            layers.append(runtime.AttentionDecoderLayer(random_cell(rng, m, width), attn))
            width = m
        else:
            raise ValueError(kind)
    layers.append(runtime.FinalProjectionLayer(rng.normal(0, 0.5, (vocab, width)), rng.normal(0, 0.1, vocab)))
    return runtime.FloatModel(layers)


def calibrated_int_model(rng, arch, *, pieces=6, cell_bits=8, gate_bits=8, vocab=6, T=8, n_batches=2):
    model = token_model(rng, arch, vocab=vocab)
    batches = [rng.integers(0, vocab, size=T) for _ in range(n_batches)]
    ranges = runtime.calibrate(model, batches)
    im = runtime.convert(model, ranges, pieces=pieces, cell_bits=cell_bits, gate_bits=gate_bits)
    return model, im


def use_true_functions(monkeypatch) -> None:
    """Make the exact oracle evaluate every activation as its quantized true
    function instead of the PWL form, so ``runtime.run_reference`` becomes
    the oracle of ``runtime.exact_activations``."""

    def true_function(q, t):
        return quant.quantize(ACTIVATIONS[t.fn_name](quant.dequantize(q, t.in_qp)), t.out_qp)

    monkeypatch.setattr(L, "eval_pwl_int_exact", true_function)
    monkeypatch.setattr(att, "eval_pwl_int_exact", true_function)
