"""Whole-stack differential fuzz: random calibrated stacks through convert,
save, load and run.

Each example is a model of 1-3 layers (LSTM, MadNorm-LSTM, BiLSTM,
attention decoder, residual add) on tokens or frames, with an optional
final projection: widths 1-4, weight scales 0.05-8, frame scales 0.01-50,
1-16 pieces, 8- or 16-bit cells and gates, 1-5 frames.  Conversion either
refuses the stack with a ``ValueError`` that names a layer, or the integer
engine, the exact oracle and the engine of the saved and loaded model agree
bit for bit, and every stored bias keeps its float bias's sign or is 0.
Calibrating on one frame leaves a cell's recurrent stages at exactly 0, so
about a third of the examples are refused, as they should be.  The 200
examples take about 5 s.
"""
import re

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_cell
from qlstm import attention, runtime, serialize

KINDS = ("lstm", "lstm_norm", "bilstm", "attn", "residual")


@st.composite
def stacks(draw):
    """A float model, its two calibration sequences, a sequence to run and
    the conversion options."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.05, 8.0))
    width, vocab = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens, n_in = draw(st.booleans()), width
    layers = [runtime.EmbeddingLayer(rng.normal(0, scale, (vocab, width)))] if tokens else []
    widths = [width] * len(layers)  # each layer's output width
    # a residual needs an earlier layer, so the first middle layer is none
    kinds = [draw(st.sampled_from(KINDS[:-1])), *draw(st.lists(st.sampled_from(KINDS), max_size=2))]
    for kind in kinds:
        m = draw(st.integers(1, 4))
        if kind in ("lstm", "lstm_norm"):
            layers.append(runtime.LstmLayer(random_cell(rng, m, width, scale), norm=kind == "lstm_norm"))
        elif kind == "bilstm":
            layers.append(runtime.BiLstmLayer(random_cell(rng, m, width, scale), random_cell(rng, m, width, scale)))
            m *= 2
        elif kind == "attn":
            a = draw(st.integers(1, 4))
            attn = attention.AttentionWeights(
                *(rng.normal(0, scale, shape) for shape in ((a, m), (a, width), (a,), (4 * m, width)))
            )
            layers.append(runtime.AttentionDecoderLayer(random_cell(rng, m, width, scale), attn))
        else:
            skip = draw(st.sampled_from([i for i, w in enumerate(widths) if w == width]))
            layers.append(runtime.ResidualAddLayer(skip))
            m = width
        width = m
        widths.append(width)
    if draw(st.booleans()):
        layers.append(runtime.FinalProjectionLayer(rng.normal(0, scale, (vocab, width)), rng.normal(0, 0.1, vocab)))
    frames = draw(st.floats(0.01, 50.0))

    def sequence():
        T = draw(st.integers(1, 5))
        return rng.integers(0, vocab, T) if tokens else rng.normal(0, frames, (T, n_in))

    opts = {
        "pieces": draw(st.integers(1, 16)),
        "cell_bits": draw(st.sampled_from([8, 16])),
        "gate_bits": draw(st.sampled_from([8, 16])),
    }
    return runtime.FloatModel(layers), [sequence(), sequence()], sequence(), opts


def bias_pairs(float_layer, int_layer) -> list:
    """Each bias that ``int_layer`` stores, with the float bias of
    ``float_layer`` that it was converted from."""
    cells = [getattr(float_layer, k) for k in ("weights", "fwd", "bwd", "cell") if hasattr(float_layer, k)]
    pairs = [(c.bias, spec.bias_q) for c, spec in zip(cells, int_layer.cells, strict=True)]
    return pairs + ([(float_layer.bias, int_layer.bias_q)] if hasattr(int_layer, "bias_q") else [])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stack=stacks())
def test_stack_converts_or_names_a_layer_and_runs_bit_exact(tmp_path_factory, stack):
    model, batches, seq, opts = stack
    ranges = runtime.calibrate(model, batches)
    try:
        im = runtime.convert(model, ranges, **opts)
    except ValueError as e:
        assert re.search(r"\blayer \d+", str(e)), e
        return
    for float_layer, int_layer in zip(model.layers, im.layers, strict=True):
        for bias, bias_q in bias_pairs(float_layer, int_layer):
            assert np.all((bias_q == 0) | (np.sign(bias_q) == np.sign(bias))), (bias, bias_q)
    path = tmp_path_factory.mktemp("stack") / "m.json"
    serialize.save(im, path)
    got = [runtime.run(m, seq) for m in (im, serialize.load(path))]
    ref = runtime.run_reference(im, seq)
    for out in got:
        assert np.array_equal(getattr(out, "data", out), ref)
