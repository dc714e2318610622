"""Runtime: calibration, conversion, integer execution and serialization."""
import gzip
import hashlib
import json
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    calibrated_int_model,
    edit_manifest,
    observe,
    random_cell,
    random_decoder,
    random_lstm_config,
    read_manifest,
    stored,
    token_model,
    use_true_functions,
    write_manifest,
)
from perfbench.workloads import WORKLOADS, make_inputs
from qlstm import attention, floatguard, lstm, madnorm, runtime, serialize
from qlstm.lstm import LstmWeights
from qlstm.pwl import ACTIVATIONS, build_lut, build_pwl, eval_pwl_int
from qlstm.quant import (
    _BIAS_LIMIT,
    MAX_REDUCE_DIM,
    DegenerateRangeError,
    QuantParams,
    QuantTensor,
    Rescale,
    centred,
    compute_qparams,
    int_matmul,
    rescale_add,
)
from qlstm.runtime import (
    BLOCK_ELEMENTS,
    CALIBRATION_STACK,
    AttentionDecoderLayer,
    BiLstmLayer,
    CalibrationObserver,
    EmbeddingLayer,
    FinalProjectionLayer,
    FloatModel,
    IntAttnDecoder,
    IntLstm,
    IntModel,
    IntProjection,
    IntResidual,
    LstmLayer,
    ResidualAddLayer,
    _calibration_passes,
    calibrate,
    convert,
    dequantize_model,
    exact_activations,
    forward_float,
    required_stages,
    run,
    run_reference,
    validate_chain,
)


DATA = Path(__file__).resolve().parent / "data"


def all_qparams(obj, path="model"):
    """``(path, QuantParams)`` for every qparam reachable through dataclass fields, lists and tuples."""
    if isinstance(obj, QuantParams):
        yield path, obj
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from all_qparams(v, f"{path}[{i}]")
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from all_qparams(getattr(obj, f.name), f"{path}.{f.name}")


def tensor_refs(node):
    """Every tensor reference (``dtype``, ``shape``, ``offset``) in a manifest document."""
    if isinstance(node, dict):
        if "offset" in node:
            yield node
        else:
            for v in node.values():
                yield from tensor_refs(v)
    elif isinstance(node, list):
        for v in node:
            yield from tensor_refs(v)


def stored_at(doc, path: str):
    """The manifest value at an :func:`all_qparams` path: ``model.layers[1].spec.qp_x``
    is ``doc["layers"][1]["spec"]["qp_x"]``."""
    for name, index in re.findall(r"\.(\w+)|\[(\d+)\]", path.removeprefix("model")):
        doc = doc[name] if name else doc[int(index)]
    return doc


def pwl_tables(model) -> list:
    """Every PwlTable of an integer model, in layer order."""
    tables = []
    for layer in model.layers:
        if layer.decoder is not None:
            tables += [layer.decoder.pwl_tanh, layer.decoder.pwl_exp]
        tables += [t for c in layer.cells for t in (c.pwl_sig, c.pwl_tanh_j, c.pwl_tanh_c)]
    return tables


def engine_grids(model) -> list:
    """The grid that each PWL table's gathers read in ``model``'s engine, in
    :func:`pwl_tables` order: cut from the LSTM lanes' concatenated gate and
    cell tanh tables, and the attention constants' tanh and exp grids."""
    grids = []
    for layer, part in zip(model.layers, model.engine):
        lanes, consts = part if layer.decoder is not None else (part, None)
        if consts is not None:
            grids += [consts.tanh, consts.exp]
        if lanes is not None:
            cut = lambda table, ts: np.split(table, np.cumsum([t.in_qp.qmax + 1 for t in ts])[:-1])
            gates = cut(lanes.gate_table, [t for c in layer.cells for t in (c.pwl_sig, c.pwl_tanh_j)])
            tanh_c = cut(lanes.tanh_c_table, [c.pwl_tanh_c for c in layer.cells])
            grids += [g for k in range(len(layer.cells)) for g in (*gates[2 * k : 2 * k + 2], tanh_c[k])]
    return grids


class TestCalibrate:
    def test_constant_zero_stream_reports_degenerate_stage(self):
        rng = np.random.default_rng(0)
        model = FloatModel(
            [
                LstmLayer(random_cell(rng, 3, 2)),
                FinalProjectionLayer(rng.normal(0, 1, (4, 3)), np.zeros(4)),
            ]
        )
        ranges = calibrate(model, [np.zeros((4, 2))])
        with pytest.raises(DegenerateRangeError, match="input|stage"):
            convert(model, ranges)

    def test_single_batch_equals_batch_extrema(self):
        rng = np.random.default_rng(1)
        model = FloatModel(
            [
                LstmLayer(random_cell(rng, 3, 2)),
                FinalProjectionLayer(rng.normal(0, 1, (4, 3)), np.zeros(4)),
            ]
        )
        batch = rng.normal(0, 1, (6, 2))
        ranges = calibrate(model, [batch])
        assert ranges["input"] == (batch.min(), batch.max())

    def test_two_batches_union(self):
        rng = np.random.default_rng(2)
        model = FloatModel(
            [
                LstmLayer(random_cell(rng, 3, 2)),
                FinalProjectionLayer(rng.normal(0, 1, (4, 3)), np.zeros(4)),
            ]
        )
        b1, b2 = rng.normal(0, 1, (5, 2)), rng.normal(0, 3, (5, 2))
        r12 = calibrate(model, [b1, b2])
        assert r12["input"] == (min(b1.min(), b2.min()), max(b1.max(), b2.max()))

    def test_empty_stream_lists_missing_stages(self):
        rng = np.random.default_rng(3)
        model = FloatModel(
            [
                LstmLayer(random_cell(rng, 3, 2)),
                FinalProjectionLayer(rng.normal(0, 1, (4, 3)), np.zeros(4)),
            ]
        )
        with pytest.raises(ValueError, match="never observed.*L0.mx"):
            calibrate(model, [])

    @staticmethod
    def per_call_ranges(model, batches) -> dict:
        """Min/max reduced at every recorded value: the unbuffered reference."""
        ranges = {}

        def record(name, value):
            v = np.asarray(value, dtype=np.float64)
            if v.size:
                lo, hi = ranges.get(name, (np.inf, -np.inf))
                ranges[name] = (min(lo, float(v.min())), max(hi, float(v.max())))

        for seq in batches:
            forward_float(model, seq, record=record)
        return ranges

    @staticmethod
    def model_and_batches(rng, arch, lengths):
        """The BiLSTM stack on 3-wide frames, any other on tokens."""
        if arch[0] == "bilstm":
            return token_model(rng, arch, m=4, frames=3), [rng.normal(0, 1, (t, 3)) for t in lengths]
        return token_model(rng, arch, m=4), [rng.integers(0, 6, t) for t in lengths]

    # equal-length runs, singletons and a run longer than the stack cap
    LENGTHS = [7, 7, 7, 1, 12, 5, 5, *[9] * (CALIBRATION_STACK + 2), 4]
    ARCHS = [["bilstm", "bilstm", "residual"], ["lstm", "lstm_norm", "attn"]]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_equals_per_call_min_max(self, arch):
        rng = np.random.default_rng(70)
        model, batches = self.model_and_batches(rng, arch, self.LENGTHS)
        got = calibrate(model, batches)
        want = self.per_call_ranges(model, batches)
        assert list(got) == list(want) and got == want

    @pytest.mark.parametrize("arch", ARCHS)
    def test_passes_stack_runs_of_one_shape(self, arch):
        rng = np.random.default_rng(71)
        model, batches = self.model_and_batches(rng, arch, self.LENGTHS)
        cap = CALIBRATION_STACK
        shapes = [(3, 7), (1,), (12,), (2, 5), (cap, 9), (2, 9), (4,)]
        if arch[0] == "bilstm":  # frames; a lone frame passes as given
            batches.insert(3, batches[0][0])
            shapes = [(3, 7, 3), (3,), (1, 3), (12, 3), (2, 5, 3), (cap, 9, 3), (2, 9, 3), (4, 3)]
        assert [np.shape(p) for p in _calibration_passes(model, batches)] == shapes

    @pytest.mark.parametrize("arch", ARCHS)
    def test_stacked_forward_equals_each_sequence(self, arch):
        rng = np.random.default_rng(72)
        model, seqs = self.model_and_batches(rng, arch, [6] * 3)
        stacked = forward_float(model, np.stack(seqs))
        for b, seq in enumerate(seqs):
            alone = forward_float(model, seq)
            assert len(stacked) == len(alone) == len(model.layers)
            for got, want in zip(stacked, alone):
                assert got.shape == (3, *want.shape) and np.array_equal(got[b], want)

    def test_observer_ignores_empty_values(self):
        obs = CalibrationObserver()
        obs("a", np.zeros(0))
        obs("b", [])
        obs("a", [[1.0, -2.0]])
        obs("a", 3)
        assert obs.ranges == {"a": (-2.0, 3.0)}
        obs("a", np.zeros((0, 4)))
        obs("b", np.zeros(0))
        assert obs.ranges == {"a": (-2.0, 3.0)}

    def test_observer_buffer_is_bounded(self):
        obs = CalibrationObserver()
        obs.PENDING_LIMIT = 5
        values = np.random.default_rng(73).normal(0, 1, (40, 3))
        for i, v in enumerate(values):
            obs("a", v)
            obs("b", [float(i)])
            assert obs._pending_size <= obs.PENDING_LIMIT
        assert obs.ranges == {"a": (values.min(), values.max()), "b": (0.0, 39.0)}

    def test_views_record_under_their_prefix(self):
        obs = CalibrationObserver()
        view = obs.view("L0")
        assert obs.view("L0") is view and view.view("fwd") is view.view("fwd")
        obs("L0.x", [3.0])
        view("x", [1.0])
        view.view("fwd")("x", np.array([-2.0, 0.5]))
        obs.flush()
        view("x", [4.0])
        assert obs.ranges == {"L0.x": (1.0, 4.0), "L0.fwd.x": (-2.0, 0.5)}

    def test_observer_nan_anywhere_makes_range_nan(self):
        obs = CalibrationObserver()
        obs("a", [1.0, 2.0])
        obs("b", [1.0])
        obs("a", [np.nan])
        obs.flush()
        obs("b", [np.nan, 0.0])
        assert all(np.isnan(obs.ranges["a"])) and all(np.isnan(obs.ranges["b"]))


class TestConvertAndRun:
    def test_convert_then_run_matches_reference(self):
        rng = np.random.default_rng(4)
        for arch in (["lstm", "lstm"], ["bilstm", "lstm"], ["lstm_norm", "lstm"], ["lstm", "attn"], ["lstm", "lstm", "residual"]):
            model, im = calibrated_int_model(rng, arch)
            seq = rng.integers(0, 6, size=5)
            got = run(im, seq)
            want = run_reference(im, seq)
            assert np.array_equal(got.astype(np.int64), want), arch

    def test_wide_gate_and_cell_config_bit_exact(self):
        rng = np.random.default_rng(99)
        model = token_model(rng, ["lstm_norm", "lstm"])
        ranges = calibrate(model, [rng.integers(0, 6, 10) for _ in range(2)])
        im = convert(model, ranges, pieces=8, cell_bits=16, gate_bits=16)
        seq = rng.integers(0, 6, size=6)
        assert np.array_equal(run(im, seq).astype(np.int64), run_reference(im, seq))

    def test_two_layer_m16_model_bit_exact(self):
        rng = np.random.default_rng(5)
        model = token_model(rng, ["lstm", "lstm"], vocab=8, emb=6, m=16)
        ranges = calibrate(model, [rng.integers(0, 8, size=12) for _ in range(3)])
        im = convert(model, ranges, pieces=12)
        seq = rng.integers(0, 8, size=10)
        assert np.array_equal(run(im, seq).astype(np.int64), run_reference(im, seq))

    def test_identity_embedding_round_trips_tokens(self):
        rng = np.random.default_rng(6)
        vocab = 6
        model = FloatModel(
            [
                EmbeddingLayer(np.eye(vocab)),
                LstmLayer(random_cell(rng, 3, vocab)),
                FinalProjectionLayer(rng.normal(0, 1, (vocab, 3)), np.zeros(vocab)),
            ]
        )
        ranges = calibrate(model, [rng.integers(0, vocab, 8)])
        im = convert(model, ranges, pieces=8)
        tokens = np.arange(vocab)
        rows = im.layers[0].table_q[tokens]
        assert np.array_equal(np.argmax(rows, axis=1), tokens)

    def test_full_knot_config_reproduces_lut_tables(self):
        rng = np.random.default_rng(7)
        _, im = calibrated_int_model(rng, ["lstm"], pieces=255)
        spec = im.layers[1].spec
        for table in (spec.pwl_sig, spec.pwl_tanh_j, spec.pwl_tanh_c):
            lut = build_lut(ACTIVATIONS[table.fn_name], table.in_qp, table.out_qp)
            got = eval_pwl_int(np.arange(table.in_qp.qmax + 1), table)
            assert np.array_equal(got, lut)

    def test_prefix_run_matches_full_run_for_forward_stack(self):
        rng = np.random.default_rng(8)
        _, im = calibrated_int_model(rng, ["lstm", "lstm"])
        seq = rng.integers(0, 6, size=6)
        full = run(im, seq)
        prefix = run(im, seq[:1])
        assert np.array_equal(full[0], prefix[0])

    def test_repeated_runs_bit_identical(self):
        rng = np.random.default_rng(9)
        _, im = calibrated_int_model(rng, ["lstm_norm", "lstm"])
        seq = rng.integers(0, 6, size=7)
        assert np.array_equal(run(im, seq), run(im, seq))

    def test_feature_input_model(self):
        rng = np.random.default_rng(10)
        model = FloatModel(
            [
                LstmLayer(random_cell(rng, 4, 3)),
                FinalProjectionLayer(rng.normal(0, 1, (5, 4)), np.zeros(5)),
            ]
        )
        batches = [rng.normal(0, 1, (6, 3)) for _ in range(2)]
        ranges = calibrate(model, batches)
        im = convert(model, ranges, pieces=8)
        feats = rng.normal(0, 1, (5, 3))
        assert np.array_equal(run(im, feats).astype(np.int64), run_reference(im, feats))

    def test_input_validation(self):
        rng = np.random.default_rng(11)
        _, im = calibrated_int_model(rng, ["lstm"])
        with pytest.raises(ValueError, match="vocabulary"):
            run(im, np.array([99]))
        with pytest.raises(ValueError, match="non-empty"):
            run(im, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("stage", ["L1.bwd.h", "L3.attn.exp_in", "L4.out"])
    def test_missing_layer_stage_named_before_building(self, stage):
        rng = np.random.default_rng(25)
        model = token_model(rng, ["bilstm", "lstm", "attn", "residual"])
        ranges = calibrate(model, [rng.integers(0, 6, 8)])
        del ranges[stage]
        with pytest.raises(ValueError, match=f"missing calibration ranges: {stage}$"):
            convert(model, ranges)

    def test_all_missing_stages_named_in_one_error(self):
        rng = np.random.default_rng(26)
        model = token_model(rng, ["bilstm", "lstm", "attn", "residual"])
        ranges = calibrate(model, [rng.integers(0, 6, 8)])
        for stage in ("L1.bwd.h", "L3.attn.exp_in", "L4.out"):
            del ranges[stage]
        with pytest.raises(ValueError, match="L1.bwd.h, L3.attn.exp_in, L4.out$"):
            convert(model, ranges)

    def test_tiny_range_pwl_stage_named_without_warning(self):
        """All input weights -2 on all-ones frames: sigmoid(-128) gives the
        ``sig`` stage a range of about 2.6e-56, too narrow for the PWL's
        fixed-point slopes.  The error names the layer and the stage, and
        no cast overflows on the way."""
        m = n = 64
        w_h = np.random.default_rng(0).normal(0, 0.1, (4 * m, m))
        w = LstmWeights(np.full((4 * m, n), -2.0), w_h, np.zeros(4 * m))
        model = FloatModel([LstmLayer(w)])
        ranges = calibrate(model, [np.ones((5, n))])
        assert 0 < ranges["L0.sig"][1] < 1e-50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="layer 0: stage 'sig': slope .* too steep"):
                convert(model, ranges, pieces=4)

    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    def test_bilstm_stage_error_names_the_direction(self, direction):
        """Only one direction's ``sig`` range is too narrow for the PWL's
        fixed-point slopes; the error names that direction's stage."""
        rng = np.random.default_rng(71)
        model = FloatModel([BiLstmLayer(random_cell(rng, 3, 2), random_cell(rng, 3, 2))])
        ranges = calibrate(model, [rng.normal(0, 1, (5, 2))])
        ranges[f"L0.{direction}.sig"] = (0.0, 1e-60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^layer 0: stage '{direction}.sig': slope .* too steep"):
                convert(model, ranges, pieces=4)

    @pytest.mark.parametrize("norm, stage", [(False, "pre_sig"), (True, "nx.xhat")])
    def test_multiplier_past_int64_names_layer_and_stage(self, norm, stage):
        """A near-empty stage range gives a multiplier whose negative shift,
        folded into a left shift, would take the product out of int64."""
        rng = np.random.default_rng(73)
        model = FloatModel([LstmLayer(random_cell(rng, 3, 3), norm=norm)])
        ranges = calibrate(model, [rng.normal(0, 1, (6, 3))])
        ranges[f"L0.{stage}"] = (-1e-30, 1e-30)
        with pytest.raises(ValueError, match=f"^layer 0: stage '{stage}': multiplier .* overflows int64"):
            convert(model, ranges, pieces=4)

    def test_near_empty_cell_range_saturates_like_the_oracle(self):
        """Every gate saturates in calibration, so the decoder's cell-state
        range comes out about 1e-143 wide and the one-operand stages p_fc,
        p_ij and h get multipliers near 2^433.  Capped at 2^30 they saturate
        as the oracle does; folded into an int64 left shift they would round
        to 0, and run would give h = [255, 255] against [0, 255]."""
        m, a, k = 2, 2, MAX_REDUCE_DIM
        end = np.full((4 * m, k), -0.01)
        cell = LstmWeights(end, np.full((4 * m, m), 0.3), np.zeros(4 * m))
        attn = attention.AttentionWeights(np.full((a, m), 0.3), end[:a], np.full(a, 0.5), end)
        model = FloatModel([AttentionDecoderLayer(cell, attn)])
        x = np.ones((3, k))
        dec = convert(model, calibrate(model, [x, 0 * x]), pieces=4).layers[0].spec
        c = dec.cell
        assert c.qp_c.max - c.qp_c.min < 1e-140
        assert (c.m_fc.mantissa, c.m_fc.shift) == (c.m_ij.mantissa, c.m_ij.shift) == (1 << 30, 0)
        bias = np.where(np.arange(4 * m) % 2, -_BIAS_LIMIT, _BIAS_LIMIT).astype(np.int32)
        im = IntModel([IntAttnDecoder(replace(dec, cell=replace(c, bias_q=bias)))], c.qp_x)
        assert np.array_equal(run(im, x).data, run_reference(im, x))
        assert run(im, x).data[0].tolist() == [0, 255]

    def test_bilstm_degenerate_backward_range_names_the_direction(self):
        rng = np.random.default_rng(72)
        model = FloatModel([BiLstmLayer(random_cell(rng, 3, 2), random_cell(rng, 3, 2))])
        ranges = calibrate(model, [rng.normal(0, 1, (5, 2))])
        ranges["L0.bwd.c"] = (0.0, 0.0)
        with pytest.raises(DegenerateRangeError, match="^layer 0: stage 'bwd.c': "):
            convert(model, ranges)

    def test_invalid_convert_options(self):
        rng = np.random.default_rng(12)
        model = token_model(rng, ["lstm"])
        ranges = calibrate(model, [rng.integers(0, 6, 8)])
        with pytest.raises(ValueError):
            convert(model, ranges, pieces=0)
        with pytest.raises(ValueError):
            convert(model, ranges, cell_bits=12)

    def test_projection_wider_than_accumulator_bound_rejected(self):
        FinalProjectionLayer(np.zeros((2, MAX_REDUCE_DIM)), np.zeros(2))
        with pytest.raises(ValueError, match="overflow the 32-bit accumulator"):
            FinalProjectionLayer(np.zeros((2, MAX_REDUCE_DIM + 1)), np.zeros(2))

    def test_int_projection_wider_than_accumulator_bound_rejected(self):
        qp = compute_qparams(-1.0, 1.0, 8)
        IntProjection(np.zeros((2, MAX_REDUCE_DIM), np.uint8), qp, np.zeros(2, np.int32), qp)
        with pytest.raises(ValueError, match="overflow the 32-bit accumulator"):
            IntProjection(np.zeros((2, MAX_REDUCE_DIM + 1), np.uint8), qp, np.zeros(2, np.int32), qp)

    def test_int_specs_wider_than_accumulator_bound_rejected(self):
        rng = np.random.default_rng(27)
        _, im = calibrated_int_model(rng, ["lstm", "attn"])
        lstm, dec = im.layers[1].spec, im.layers[2].spec
        wide = lambda a: np.zeros((a.shape[0], MAX_REDUCE_DIM + 1), np.uint8)
        for spec, name in ((lstm, "w_x_q"), (dec, "w_k_q"), (dec, "w_s_q")):
            with pytest.raises(ValueError, match="overflow the 32-bit accumulator"):
                replace(spec, **{name: wide(getattr(spec, name))})

    def test_int_structure_rules_shared_with_float_model(self):
        rng = np.random.default_rng(28)
        _, im = calibrated_int_model(rng, ["lstm"])
        emb, lstm, proj = im.layers
        for layers in ([lstm, emb, proj], [emb, proj, lstm]):
            with pytest.raises(ValueError, match="first|last"):
                IntModel(layers, None)
            with pytest.raises(ValueError, match="first|last"):
                FloatModel([layer.dequantize() for layer in layers])

    def test_empty_model_rejected(self):
        for build in (lambda: IntModel([], compute_qparams(-1.0, 1.0, 8)), lambda: FloatModel([])):
            with pytest.raises(ValueError, match="a model needs at least one layer"):
                build()

    def test_no_float_ops_on_integer_path(self, monkeypatch):
        rng = np.random.default_rng(13)
        _, im = calibrated_int_model(rng, ["bilstm", "lstm_norm", "attn"])
        seq = rng.integers(0, 6, size=5)
        for model in (im, exact_activations(im)):
            with floatguard.trace_float_ops() as count:
                run(model, seq)
                assert count() == 0
        # positive control: a float matmul result is counted before numpy's
        # integer shift rejects it
        monkeypatch.setattr(lstm, "int_matmul", lambda a, b: int_matmul(a, b).astype(np.float64))
        with floatguard.trace_float_ops() as count:
            with pytest.raises(TypeError):
                run(im, seq)
            assert count() > 0

    def test_float_accumulator_in_rescale_is_counted(self, monkeypatch):
        """A float matmul result reaching a rescale is counted before the
        rescale's integer shift rejects it (it is never cast to int64)."""
        rng = np.random.default_rng(14)
        _, im = calibrated_int_model(rng, ["lstm", "attn"])
        seq = rng.integers(0, 6, size=5)
        monkeypatch.setattr(attention, "int_matmul", lambda a, b: int_matmul(a, b).astype(np.float64) + 0.4)
        with floatguard.trace_float_ops() as count:
            with pytest.raises(TypeError):
                run(im, seq)
            assert count() > 0

    def test_manifest_layer_type_tags(self, tmp_path):
        rng = np.random.default_rng(24)
        _, im = calibrated_int_model(rng, ["lstm_norm", "lstm", "attn"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        doc = read_manifest(path)
        kinds = [d["type"] for d in doc["layers"]]
        assert kinds == ["embedding", "lstm", "lstm", "attention_decoder", "final_projection"]
        # a MadNorm-LSTM is the LSTM whose cell stores its norms
        assert [doc["layers"][i]["spec"]["norm_x"] is not None for i in (1, 2)] == [True, False]

    def test_dequantized_float_model_runs(self):
        rng = np.random.default_rng(14)
        _, im = calibrated_int_model(rng, ["lstm", "lstm"])
        fm = dequantize_model(im)
        seq = rng.integers(0, 6, size=5)
        float_logits = forward_float(fm, seq)[-1]
        int_logits = run(im, seq)
        scale = im.layers[-1].qp_w.scale * im.layers[-1].qp_in.scale
        assert float_logits.shape == int_logits.shape
        assert np.abs(int_logits * scale - float_logits).mean() < 0.5


class TestSaveLoad:
    def test_round_trip_outputs_bit_identical(self, tmp_path):
        rng = np.random.default_rng(15)
        for arch, cell_bits in ((["lstm", "lstm", "residual"], 8), (["bilstm", "attn"], 16), (["lstm_norm"], 8)):
            _, im = calibrated_int_model(rng, arch, cell_bits=cell_bits)
            path = str(tmp_path / f"m_{'_'.join(arch)}_{cell_bits}.json")
            serialize.save(im, path)
            im2 = serialize.load(path)
            saved, loaded = dict(all_qparams(im)), dict(all_qparams(im2))
            assert len(saved) > 30 and saved == loaded
            seq = rng.integers(0, 6, size=6)
            assert np.array_equal(run(im, seq), run(im2, seq))

    def test_cell_bitwidth_preserved(self, tmp_path):
        rng = np.random.default_rng(16)
        for bits in (8, 16):
            _, im = calibrated_int_model(rng, ["lstm"], cell_bits=bits)
            path = str(tmp_path / f"cell{bits}.json")
            serialize.save(im, path)
            im2 = serialize.load(path)
            assert im2.layers[1].spec.qp_c.bitwidth == bits

    def test_qparams_not_derived_from_their_range_not_saved(self, tmp_path):
        # the manifest stores [min, max, bitwidth] only, so such a model would load changed
        _, im = calibrated_int_model(np.random.default_rng(45), ["lstm"])
        qp = im.layers[2].qp_w
        im.layers[2].qp_w = replace(qp, zero_point=qp.zero_point + 1)
        with pytest.raises(ValueError, match="qparams L2.qp_w: scale and zero point are not derived from the range"):
            serialize.save(im, str(tmp_path / "m.json"))

    def test_corrupted_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        blob = bytearray((tmp_path / "m.json.blob").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (tmp_path / "m.json.blob").write_bytes(bytes(blob))
        with pytest.raises(serialize.ModelFormatError, match="checksum"):
            serialize.load(path)

    def test_truncated_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(18)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        blob = (tmp_path / "m.json.blob").read_bytes()
        (tmp_path / "m.json.blob").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(serialize.ModelFormatError):
            serialize.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        edit_manifest(path, lambda doc: doc.update(version=7))
        with pytest.raises(serialize.ModelFormatError, match="unsupported manifest version 7"):
            serialize.load(path)

    def test_version_1_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        serialize.save(calibrated_int_model(np.random.default_rng(19), ["lstm"])[1], str(path))
        edit_manifest(path, lambda doc: doc.update(version=1))
        with pytest.raises(serialize.ModelFormatError, match="unsupported manifest version 1"):
            serialize.load(str(path))

    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
    def test_saves_and_loads_through_str_and_path(self, tmp_path, as_path):
        rng = np.random.default_rng(21)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = as_path(tmp_path / "m.json")
        assert serialize.save(im, path) == str(path)
        seq = rng.integers(0, 6, size=5)
        assert np.array_equal(run(serialize.load(path), seq), run(im, seq))

    def test_renamed_model_files_load(self, tmp_path):
        # the blob is the manifest's path plus .blob, so a model moves as its two files
        rng = np.random.default_rng(21)
        _, im = calibrated_int_model(rng, ["bilstm", "lstm"])
        serialize.save(im, str(tmp_path / "a.json"))
        for suffix in ("", ".blob"):
            (tmp_path / f"a.json{suffix}").rename(tmp_path / f"b.json{suffix}")
        loaded = serialize.load(str(tmp_path / "b.json"))
        for seq in (rng.integers(0, 6, size=T) for T in (1, 7)):
            assert np.array_equal(run(loaded, seq), run(im, seq))

    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    def test_manifest_holds_only_what_load_reads(self, tmp_path, integer):
        model, im = calibrated_int_model(np.random.default_rng(47), ["bilstm", "lstm_norm", "attn", "lstm", "residual"])
        path = tmp_path / "m.json"
        serialize.save(im if integer else model, str(path))
        doc = read_manifest(path)
        assert set(doc) == {"version", "kind", "layers", "input_qp", "seal"}
        refs = list(tensor_refs(doc))
        assert len(refs) > 20 and all(set(ref) == {"dtype", "shape", "offset"} for ref in refs)
        assert set(doc["layers"][1]) == {"type", "fwd", "bwd"}

    @pytest.mark.parametrize(
        "arch, gate_bits, table, grid",
        [(["lstm"], 16, "pwl_sig", "in_qp"), (["lstm"], 8, "pwl_sig", "out_qp"), (["attn"], 8, "pwl_exp", "in_qp")],
        ids=["sigmoid-on-8-bit-inputs", "sigmoid-to-16-bit-outputs", "exp-on-8-bit-inputs"],
    )
    def test_pwl_table_off_its_stages_grids_rejected(self, tmp_path, arch, gate_bits, table, grid):
        """A table rebuilt on the other width of one of its grids, same
        range: such a model built, and ran unlike ``run_reference`` (the
        16-bit-gate sigmoid on 8-bit inputs) or raised ``IndexError`` in
        ``run`` (the others)."""
        _, im = calibrated_int_model(np.random.default_rng(48), arch, gate_bits=gate_bits)
        owner = im.layers[1].spec
        t = getattr(owner, table)
        qp = getattr(t, grid)
        grids = {"in_qp": t.in_qp, "out_qp": t.out_qp, grid: compute_qparams(qp.min, qp.max, 24 - qp.bitwidth)}
        other = build_pwl(t.fn_name, grids["in_qp"], grids["out_qp"], t.n_pieces)
        with pytest.raises(ValueError, match=f"table {table} must map its input stage's grid onto its output stage's"):
            replace(owner, **{table: other})
        path = tmp_path / "m.json"
        serialize.save(im, str(path))

        edit_manifest(path, lambda doc: doc["layers"][1]["spec"].update({table: serialize._Writer().value(other, table)}))
        with pytest.raises(serialize.ModelFormatError, match=f"layer 1: table {table} must map"):
            serialize.load(str(path))

    def test_chain_inconsistency_rejected(self, tmp_path):
        rng = np.random.default_rng(20)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)

        def widen_input_grid(doc):
            doc["layers"][1]["spec"]["qp_x"][1] *= 1.5  # [min, max, bitwidth]

        edit_manifest(path, widen_input_grid)
        with pytest.raises(ValueError, match="chain"):
            serialize.load(path)

    @pytest.mark.parametrize(
        "workload, edits, message",
        [
            ("seq2seq", ((0, "qp_out"), (1, "spec", "qp_x")), "layer 0: embedding output must be 8-bit"),
            ("seq2seq", ((1, "spec", "qp_x"),), "layer 1: stage 'x' must be 8-bit"),
            ("bilstm16", ((2, "qp_out"), (3, "qp_in")), "layer 2: residual output must be 8-bit"),
            ("bilstm16", ((3, "qp_in"),), "layer 3: projection input must be 8-bit"),
        ],
    )
    def test_16_bit_grid_on_an_8_bit_stage_rejected(self, tmp_path, workload, edits, message):
        # an edited pair of chained grids used to load, and run then failed on
        # uint8 storage with 16-bit qparams while run_reference ran
        w = WORKLOADS[workload]
        inputs = make_inputs(w, 1)
        im = convert(inputs.model, calibrate(inputs.model, inputs.calibration), **w.config)
        path = tmp_path / "m.json"
        serialize.save(im, str(path))

        def widen(doc):
            for i, *keys in edits:
                qp = doc["layers"][i]
                for key in keys:
                    qp = qp[key]
                qp[2] = 16

        edit_manifest(path, widen)
        with pytest.raises(serialize.ModelFormatError, match=message):
            serialize.load(str(path))

    @pytest.mark.parametrize("field, value", [("bitwidth", 8.5), ("bitwidth", 8.0), ("bitwidth", True)])
    def test_non_integer_qparams_field_rejected(self, tmp_path, field, value):
        # a manifest stores each qparam as [min, max, bitwidth]; the bitwidth must be an int
        path = tmp_path / "m.json"
        _, im = calibrated_int_model(np.random.default_rng(40), ["lstm"])
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: doc["layers"][1]["spec"]["qp_mx"].__setitem__(2, value))
        with pytest.raises(serialize.ModelFormatError, match=f"{field} must be an integer"):
            serialize.load(str(path))

    def test_multiplier_past_int64_rejected(self, tmp_path):
        # the gate-sum multipliers reach shift -37; run would disagree with run_reference
        rng = np.random.default_rng(41)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        tiny = compute_qparams(-1e-20, 1e-20, 8)

        def narrow(doc):
            doc["layers"][1]["spec"]["qp_pre_sig"] = [tiny.min, tiny.max, 8]

        edit_manifest(path, narrow)
        with pytest.raises(serialize.ModelFormatError, match="layer 1: stage 'pre_sig': .* overflows int64"):
            serialize.load(str(path))

    @pytest.mark.parametrize("value", [float, bool])
    def test_non_integer_madnorm_hidden_rejected(self, tmp_path, value):
        # a float hidden (12.0) would reach the kernel's shifts and fail there with a TypeError
        rng = np.random.default_rng(42)
        _, im = calibrated_int_model(rng, ["lstm_norm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))

        def retype_hidden(doc):
            spec = doc["layers"][1]["spec"]
            for norm in (spec["norm_x"], spec["norm_h"], spec["norm_c"]):
                norm["hidden"] = value(norm["hidden"])

        edit_manifest(path, retype_hidden)
        with pytest.raises(serialize.ModelFormatError, match="hidden must be an integer"):
            serialize.load(str(path))

    @pytest.mark.parametrize(
        "key, retype, message",
        [
            # an int64 cast would truncate these and load the original table
            ("intercept_fx", lambda c: c + 0.75, r"intercept_fx must be an integer, not -?\d+\.75"),
            ("slope_shifts", float, r"slope_shifts must be an integer, not \d+\.0"),
            ("norm", int, "norm must be a boolean, not 0"),  # the float model's LSTM
        ],
        ids=["pwl-intercept-plus-0.75", "pwl-shift-as-float", "lstm-norm-as-int"],
    )
    def test_value_of_another_json_type_rejected(self, tmp_path, key, retype, message):
        model, im = calibrated_int_model(np.random.default_rng(45), ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(model if key == "norm" else im, str(path))

        def mutate(doc):
            layer = doc["layers"][1]
            if key == "norm":
                layer["norm"] = retype(layer["norm"])
            else:
                pwl = layer["spec"]["pwl_sig"]
                pwl[key] = [retype(v) for v in pwl[key]]

        edit_manifest(path, mutate)
        with pytest.raises(serialize.ModelFormatError, match=message):
            serialize.load(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(offset=-1), "non-negative integers"),
            (dict(shape=[-1, -1]), "non-negative integers"),  # its element count is 1
            (dict(offset=0.0), "non-negative integers"),
            (dict(offset=True), "non-negative integers"),
            (dict(shape=[1]), "does not fit shape"),  # the projection's bias, which run would broadcast
            (dict(shape=[1 << 20]), "extends past the end of the blob"),
        ],
    )
    def test_bad_tensor_reference_rejected(self, tmp_path, edit, message):
        rng = np.random.default_rng(41)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: max(tensor_refs(doc), key=lambda ref: ref["offset"]).update(edit))
        with pytest.raises(serialize.ModelFormatError, match=message):
            serialize.load(str(path))

    @pytest.mark.parametrize("skip_from", [7, -1, 3])
    def test_residual_skip_out_of_range_rejected(self, tmp_path, skip_from):
        rng = np.random.default_rng(29)
        _, im = calibrated_int_model(rng, ["lstm", "lstm", "residual"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: doc["layers"][3].update(skip_from=skip_from))
        with pytest.raises(ValueError, match="residual skip"):
            serialize.load(str(path))

    def test_boolean_residual_skip_rejected(self, tmp_path):
        # True is layer index 1: the float model built, and a re-sealed manifest loaded and ran
        model, im = calibrated_int_model(np.random.default_rng(29), ["lstm", "lstm", "residual"])
        with pytest.raises(ValueError, match="skip_from must be an integer, not True"):
            FloatModel([*model.layers[:3], ResidualAddLayer(skip_from=True), model.layers[4]])
        for m in (model, im):
            path = tmp_path / f"{type(m).__name__}.json"
            serialize.save(m, str(path))
            edit_manifest(path, lambda doc: doc["layers"][3].update(skip_from=True))
            with pytest.raises(serialize.ModelFormatError, match="skip_from must be an integer, not True"):
                serialize.load(str(path))

    @pytest.mark.parametrize("layer", ["projection", "lstm"])
    def test_over_range_bias_in_resaved_manifest_rejected(self, tmp_path, layer):
        rng = np.random.default_rng(30)
        _, im = calibrated_int_model(rng, ["lstm"])
        bias = im.layers[2].bias_q if layer == "projection" else im.layers[1].spec.bias_q
        bias[0] = 2**31 - 1  # int32 acc + bias wraps where the int64 oracle does not
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        with pytest.raises(ValueError, match="bias"):
            serialize.load(path)
        bias[0] = _BIAS_LIMIT
        serialize.save(im, path)
        serialize.load(path)

    def test_wrong_tensor_dtype_rejected_by_convert_and_load(self, tmp_path):
        rng = np.random.default_rng(31)
        _, im = calibrated_int_model(rng, ["lstm"])
        spec = im.layers[1].spec
        with pytest.raises(ValueError, match="bias_q must be stored as int32"):
            replace(spec, bias_q=spec.bias_q.astype(np.float64))
        # a float bias in a saved model: it used to load and run through the integer cell
        spec.bias_q = spec.bias_q.astype(np.float64) + 0.4
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        with pytest.raises(serialize.ModelFormatError, match="bias_q must be stored as int32"):
            serialize.load(path)

    @pytest.mark.parametrize("layer, name", [(0, "table_q"), (1, "w_h_q"), (2, "w_q")])
    def test_wrong_weight_dtype_in_manifest_rejected(self, tmp_path, layer, name):
        rng = np.random.default_rng(32)
        _, im = calibrated_int_model(rng, ["lstm"])
        owner = im.layers[layer].spec if layer == 1 else im.layers[layer]
        setattr(owner, name, getattr(owner, name).astype(np.uint16))
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        with pytest.raises(serialize.ModelFormatError, match=f"{name} must be stored as uint8"):
            serialize.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(override_q=[256], override_val=[0]), "override points"),
            (dict(override_q=[-1], override_val=[0]), "override points"),
            (dict(override_q=[3], override_val=[]), "override points"),
            (dict(knots_q=[0, 300]), "knots"),
            (dict(knots_q=[5, 5]), "knots"),
        ],
    )
    def test_pwl_points_off_the_grid_rejected(self, tmp_path, edit, message):
        rng = np.random.default_rng(35)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: doc["layers"][1]["spec"]["pwl_sig"].update(edit))
        with pytest.raises(serialize.ModelFormatError, match=message):
            serialize.load(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["layers"][1]["spec"].pop("w_x_q"), "layer 1: unknown or missing key 'w_x_q'"),
            (lambda doc: doc["layers"][1]["spec"].pop("qp_c"), "layer 1: unknown or missing key"),
            (lambda doc: doc.pop("layers"), "manifest: unknown or missing key 'layers'"),
            (lambda doc: doc["layers"][2].update(type=["final_projection"]), "unknown layer type"),
            (lambda doc: doc["layers"].insert(2, doc["layers"][0]), "model: embedding must be the first"),
            (lambda doc: doc["layers"][2].update(qp_in=doc["layers"][1]["spec"]["qp_c"]), "chain"),
        ],
        ids=["layer-key", "qparams-entry", "top-key", "type-not-a-string", "structure", "chain"],
    )
    def test_malformed_manifest_is_a_format_error(self, tmp_path, edit, message):
        rng = np.random.default_rng(36)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        edit_manifest(path, edit)
        with pytest.raises(serialize.ModelFormatError, match=message):
            serialize.load(str(path))

    @pytest.mark.parametrize("fn", ["foo", None])
    def test_pwl_of_unknown_function_rejected(self, tmp_path, fn):
        rng = np.random.default_rng(38)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: doc["layers"][1]["spec"]["pwl_tanh_c"].update(fn_name=fn))
        with pytest.raises(serialize.ModelFormatError, match=f"PWL table of unknown function {fn!r}"):
            serialize.load(str(path))

    @pytest.mark.parametrize(
        "gate_bits, edit, message",
        [
            (16, lambda t, zp: t.update(slope_mants=[2**50] * len(t["slope_mants"])), "mantissas"),
            (8, lambda t, zp: t.update(override_q=[zp], override_val=[300]), "override values"),
            (8, lambda t, zp: t.update(slope_shifts=[s + 29 for s in t["slope_shifts"]]), "shifts"),
            (8, lambda t, zp: t.update(intercept_fx=t["intercept_fx"] + [0]), "slopes and .* intercepts"),
            (8, lambda t, zp: t.update(intercept_fx=[2**63 - 2**40] * len(t["intercept_fx"])), r"below 2\^62"),
        ],
        ids=["mantissa", "override-value", "shift", "piece-count", "intercept"],
    )
    def test_pwl_integer_form_that_no_build_makes_rejected(self, tmp_path, gate_bits, edit, message):
        """Re-sealed integer forms that such a model would run wrongly: a
        mantissa of 2^50 wraps the grid's int64 products, and an override
        value past the output grid sends the gathers past their pair-table
        rows (both loaded, and ran unlike ``run_reference``, before)."""
        _, im = calibrated_int_model(np.random.default_rng(39), ["bilstm", "lstm"], gate_bits=gate_bits)
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        zp = im.layers[2].spec.qp_pre_sig.zero_point
        edit_manifest(path, lambda doc: edit(doc["layers"][2]["spec"]["pwl_sig"], zp))
        with pytest.raises(serialize.ModelFormatError, match=message):
            serialize.load(str(path))

    def test_manifest_that_is_not_json_is_a_format_error(self, tmp_path):
        rng = np.random.default_rng(37)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        write_manifest(path, read_manifest(path), reseal=False, dumps=lambda doc: json.dumps(doc)[:-40])
        with pytest.raises(serialize.ModelFormatError, match="manifest"):
            serialize.load(str(path))

    @pytest.mark.parametrize("cut", [lambda n: n - 1, lambda n: n // 2, lambda n: 10], ids=["trailer", "half", "header"])
    def test_truncated_manifest_stream_rejected(self, tmp_path, cut):
        path = tmp_path / "m.json"
        serialize.save(calibrated_int_model(np.random.default_rng(37), ["lstm"])[1], str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: cut(len(raw))])
        with pytest.raises(serialize.ModelFormatError, match="the gzip stream is truncated"):
            serialize.load(str(path))

    def test_manifest_past_the_inflation_cap_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        serialize.save(calibrated_int_model(np.random.default_rng(37), ["lstm"])[1], str(path))
        size = len(gzip.decompress(path.read_bytes()))
        monkeypatch.setattr(serialize, "MAX_MANIFEST_BYTES", size)
        serialize.load(str(path))
        monkeypatch.setattr(serialize, "MAX_MANIFEST_BYTES", size - 1)
        with pytest.raises(serialize.ModelFormatError, match=f"past the {size - 1}-byte cap"):
            serialize.load(str(path))
        # a stream that would inflate to 8 MiB is read no further than the cap
        path.write_bytes(gzip.compress(b" " * (8 << 20)))
        tracemalloc.start()
        try:
            with pytest.raises(serialize.ModelFormatError, match="cap"):
                serialize.load(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_file_that_is_not_gzip_is_read_no_further_than_its_magic(self, tmp_path):
        path = tmp_path / "m.json"
        with open(path, "wb") as fh:
            fh.truncate(32 << 20)  # 32 MiB of zeros
        tracemalloc.start()
        try:
            with pytest.raises(serialize.ModelFormatError, match=r"\(gzip-compressed JSON\): convert the model again"):
                serialize.load(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("arch", [["bilstm", "lstm_norm", "attn"], ["lstm", "lstm", "residual"]])
    def test_each_value_is_stored_at_its_field(self, tmp_path, arch):
        model, im = calibrated_int_model(np.random.default_rng(46), arch)
        for m in (model, im):
            path = tmp_path / f"{type(m).__name__}.json"
            serialize.save(m, str(path))
            doc = read_manifest(path)
            assert '"qparams":' not in json.dumps(doc) and '"tensors":' not in json.dumps(doc)
        qps = dict(all_qparams(im))
        assert len(qps) > 40
        for where, qp in qps.items():
            assert stored_at(doc, where) == [qp.min, qp.max, qp.bitwidth], where
        # a PWL table stores its integer form, and nothing that the form derives
        sig = doc["layers"][1]["fwd"]["pwl_sig"] if arch[0] == "bilstm" else doc["layers"][1]["spec"]["pwl_sig"]
        assert set(sig) == {
            "fn_name", "in_qp", "out_qp", "knots_q", "slope_mants", "slope_shifts", "intercept_fx", "override_q",
            "override_val",
        }

    @pytest.mark.parametrize("version", [1, 2, None])
    def test_manifest_that_is_not_gzip_must_be_converted_again(self, tmp_path, version):
        path = tmp_path / "m.json"
        serialize.save(calibrated_int_model(np.random.default_rng(37), ["lstm"])[1], str(path))
        if version is None:
            path.write_bytes(b"")
        else:  # a plain-JSON manifest as versions 1 and 2 wrote it, sealed
            doc = read_manifest(path)
            doc["version"] = version
            doc["seal"] = serialize.seal(doc, (tmp_path / "m.json.blob").read_bytes())
            path.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True))
        with pytest.raises(serialize.ModelFormatError, match="not a format-6 manifest .*: convert the model again"):
            serialize.load(str(path))

    @pytest.mark.parametrize(
        "norm, key, value",
        [
            ("nx", "hidden", 7), ("nh", "hidden", 13), ("nc", "hidden", 12),
            ("nc", "x", "mx"), ("nh", "x", "mx"),
        ],
    )
    def test_madnorm_not_matching_its_stage_rejected(self, tmp_path, norm, key, value):
        # a stacked MadNorm kernel would otherwise run on the wrong rows or grid
        rng = np.random.default_rng(38)
        _, im = calibrated_int_model(rng, ["lstm_norm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))

        def mismatch(doc):
            spec = doc["layers"][1]["spec"]
            if key == "x":
                spec[f"norm_{norm[1]}"]["qp_x"] = spec[f"qp_{value}"]
            else:
                spec[f"norm_{norm[1]}"][key] = value

        edit_manifest(path, mismatch)
        with pytest.raises(serialize.ModelFormatError, match=f"norm_{norm[1]} must take"):
            serialize.load(str(path))

    def test_loaded_activation_tables_equal_converted_ones(self, tmp_path):
        rng = np.random.default_rng(34)
        _, im = calibrated_int_model(rng, ["bilstm", "lstm_norm", "attn"], cell_bits=16)
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        built, loaded = pwl_tables(im), pwl_tables(serialize.load(path))
        assert len(built) == len(loaded) == 2 * 3 + 3 + 3 + 2
        for a, b in zip(built, loaded):
            assert a is not b and a.grid_out.dtype == b.grid_out.dtype
            assert np.array_equal(a.grid_out, b.grid_out)
        # the tables are derived at load time, never stored
        assert "grid_out" not in json.dumps(read_manifest(path))

    def test_validate_chain_direct(self):
        rng = np.random.default_rng(21)
        _, im = calibrated_int_model(rng, ["lstm", "lstm"])
        validate_chain(im)  # freshly converted models always chain

    def test_float_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        model = token_model(rng, ["bilstm", "lstm_norm", "attn", "lstm", "residual"])
        path = str(tmp_path / "f.json")
        serialize.save(model, path)
        loaded = serialize.load(path)
        seq = rng.integers(0, 6, size=5)
        a = forward_float(model, seq)[-1]
        b = forward_float(loaded, seq)[-1]
        assert np.array_equal(a, b)


def _leaf_paths(node, path=()):
    """Key paths to every scalar or numeric list in a manifest document."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


@pytest.fixture(scope="module")
def saved_manifest(tmp_path_factory):
    _, im = calibrated_int_model(np.random.default_rng(39), ["lstm_norm", "attn"])
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    serialize.save(im, str(path))
    return path, path.read_bytes(), [p for p in _leaf_paths(read_manifest(path)) if p[0] != "seal"]


@given(data=st.data(), value=st.sampled_from([None, -1, 0, 1.5, 10**12, "x", [], {}, "<deleted>"]))
def test_mutated_manifest_loads_or_raises_format_error(saved_manifest, data, value):
    path, raw, paths = saved_manifest
    *parents, key = data.draw(st.sampled_from(paths))

    def mutate(doc):
        node = doc
        for k in parents:
            node = node[k]
        if value == "<deleted>":
            node.pop(key)
        else:
            node[key] = value

    path.write_bytes(raw)
    edit_manifest(path, mutate)  # re-sealed, so the decoder's own checks see the edit
    try:
        serialize.load(str(path))
    except serialize.ModelFormatError:
        pass


def _bump_sig_intercept(doc):
    doc["layers"][1]["spec"]["pwl_sig"]["intercept_fx"][0] += 1


class TestStageTables:
    """The mixed-precision layout is declared once per cell: ``lstm.CELL_STAGES``,
    ``attention.ATTN_BITS`` and ``madnorm.NORM_STAGES``."""

    @staticmethod
    def qp_fields(cls) -> list:
        return [f.name[3:] for f in fields(cls) if f.name.startswith("qp_")]

    def test_spec_qparams_fields_are_the_tables(self):
        assert self.qp_fields(lstm.QuantLstmSpec) == ["wx", "wh", *lstm.CELL_STAGES]
        assert self.qp_fields(attention.QuantAttnDecoderSpec) == list(attention.ATTN_BITS)
        assert self.qp_fields(madnorm.MadNormQParams) == ["x", *madnorm.NORM_STAGES]

    @pytest.mark.parametrize("arch, count", [(["bilstm", "bilstm", "residual"], 49), (["lstm", "lstm_norm", "attn"], 58)])
    def test_calibrate_records_exactly_the_required_stages(self, arch, count):
        rng = np.random.default_rng(31)
        model = token_model(rng, arch)
        ranges = calibrate(model, [rng.integers(0, 6, 8)])
        assert sorted(ranges) == sorted(required_stages(model))
        assert len(ranges) == len(required_stages(model)) == count

    @staticmethod
    def other_bits(qp: QuantParams) -> QuantParams:
        return compute_qparams(qp.min, qp.max, 24 - qp.bitwidth)

    @pytest.mark.parametrize(
        "table, stage",
        [("cell", s) for s in lstm.CELL_STAGES]
        + [("norm", s) for s in madnorm.NORM_STAGES]
        + [("attn", s) for s in attention.ATTN_BITS],
    )
    def test_wrong_bitwidth_names_the_stage(self, table, stage):
        rng = np.random.default_rng(32)
        if table == "attn":
            spec = random_decoder(rng)[-1]
        else:
            spec = random_lstm_config(rng, norm=True)[-1]
            spec = spec if table == "cell" else spec.norm_x
        name = f"qp_{stage}"
        with pytest.raises(ValueError, match=f"'{stage}'"):
            replace(spec, **{name: self.other_bits(getattr(spec, name))})


class TestWidthChecks:
    """Widths are part of the chain that building an IntModel checks."""

    def _lstms(self, rng, n_second):
        """A 4-unit LSTM on 3 inputs, and a 3-unit one on ``n_second`` inputs
        whose input grid is the first one's output grid."""
        _, _, first = random_lstm_config(rng, m=4, n=3)
        w = random_cell(rng, 3, n_second)
        ranges = observe(lstm.lstm_sequence_real, rng.normal(0, 1, (5, n_second)), w)
        return first, lstm.QuantLstmSpec.from_float(w, ranges, qp_x=first.qp_h, pieces=6)

    def test_layer_width_must_match_its_input(self, tmp_path):
        first, second = self._lstms(np.random.default_rng(80), 5)
        message = "layer 1 takes 5 values per frame, but its input has 4"
        with pytest.raises(ValueError, match=message):
            IntModel([IntLstm(first), IntLstm(second)], first.qp_x)
        # a valid model whose middle layer (4 inputs, 5 units, on the first's output grid) is
        # then cut from its file, so the last layer reads the first layer's 4 values
        w = random_cell(np.random.default_rng(84), 5, 4)
        ranges = observe(lstm.lstm_sequence_real, np.random.default_rng(85).normal(0, 1, (5, 4)), w)
        middle = lstm.QuantLstmSpec.from_float(w, ranges, qp_x=first.qp_h, qp_h=first.qp_h, pieces=6)
        im = IntModel([IntLstm(first), IntLstm(middle), IntLstm(second)], first.qp_x)
        path = serialize.save(im, tmp_path / "m.json")
        edit_manifest(path, lambda doc: doc["layers"].pop(1))
        with pytest.raises(serialize.ModelFormatError, match=f"model: {message}"):
            serialize.load(path)

    def test_layers_cannot_join_a_built_model(self):
        """A built model's layers are a tuple, so no layer gets past the
        checks and the engine build by being appended afterwards."""
        first, second = self._lstms(np.random.default_rng(86), 4)
        im = IntModel([IntLstm(first)], first.qp_x)
        with pytest.raises(AttributeError):
            im.layers.append(IntLstm(second))
        assert len(im.layers) == len(im.engine) == 1

    def test_residual_operands_must_share_their_width(self):
        first, second = self._lstms(np.random.default_rng(81), 4)
        res = IntResidual(0, first.qp_h, second.qp_h, compute_qparams(-2.0, 2.0, 8))
        with pytest.raises(ValueError, match=r"layer 2 \(residual skip operand\) takes 3 values per frame, but its input has 4"):
            IntModel([IntLstm(first), IntLstm(second), res], first.qp_x)

    def test_frames_of_another_width_rejected(self):
        first, _ = self._lstms(np.random.default_rng(82), 4)
        im = IntModel([IntLstm(first)], first.qp_x)
        for fn in (run, run_reference):
            with pytest.raises(ValueError, match=r"must have 3 features each, not shape \(2, 4\)"):
                fn(im, np.zeros((2, 4)))

    def test_decoder_weights_must_fit_its_cell_and_input(self, tmp_path):
        _, im = calibrated_int_model(np.random.default_rng(83), ["attn"])  # 3-wide embedding, 3-unit decoder
        dec = im.layers[1].spec
        with pytest.raises(ValueError, match=r"w_s has shape \(12, 6\), not \(12, 3\)"):
            replace(dec, w_s_q=np.zeros((12, 6), dtype=np.uint8))
        # keys and context as wide as 6-wide frames: the decoder attends over its 3-wide input
        with pytest.raises(ValueError, match=r"w_k has shape \(3, 6\), not \(3, 3\), in a 3-unit decoder on 3 inputs"):
            replace(dec, w_k_q=np.zeros((3, 6), dtype=np.uint8), w_s_q=np.zeros((12, 6), dtype=np.uint8))
        path = tmp_path / "m.json"
        for name, shape, want in (("w_s_q", [6, 6], (12, 3)), ("w_k_q", [1, 9], (3, 3))):  # same lengths
            serialize.save(im, str(path))
            edit_manifest(path, lambda doc: doc["layers"][1]["spec"][name].update(shape=shape))
            message = rf"layer 1: {name[:3]} has shape \({shape[0]}, {shape[1]}\), not \({want[0]}, {want[1]}\)"
            with pytest.raises(serialize.ModelFormatError, match=message):
                serialize.load(str(path))

    def test_float_decoder_attention_must_fit_its_cell(self, tmp_path):
        """A decoder attends over its own input from its own hidden state, so
        its attention is sized for its cell: one sized for a 5-unit decoder
        on a 3-unit cell once built, saved and loaded, and calibrating it
        failed inside numpy."""
        rng = np.random.default_rng(87)

        def attn(m, n, a=2):
            return attention.AttentionWeights(
                rng.normal(0, 0.5, (a, m)), rng.normal(0, 0.5, (a, n)), rng.normal(0, 0.5, a), rng.normal(0, 0.5, (4 * m, n))
            )

        cell = random_cell(rng, 3, 4)
        message = "attention for a {}-unit decoder on {} inputs does not fit a 3-unit cell on 4 inputs"
        for m, n in ((5, 4), (3, 5)):
            with pytest.raises(ValueError, match=message.format(m, n)):
                AttentionDecoderLayer(cell, attn(m, n))
        model = FloatModel([AttentionDecoderLayer(cell, attn(3, 4)), FinalProjectionLayer(rng.normal(0, 1, (8, 3)), np.zeros(8))])
        path = serialize.save(model, tmp_path / "m.json")

        def five_units(doc):  # w_q and w_s read on into the tensors after them, inside the blob
            a = doc["layers"][0]["attn"]
            a["w_q"]["shape"], a["w_s"]["shape"] = [2, 5], [20, 4]

        edit_manifest(path, five_units)
        with pytest.raises(serialize.ModelFormatError, match="layer 0: " + message.format(5, 4)):
            serialize.load(path)


class TestSeal:
    """One SHA-256 covers the manifest body and the blob: any edit that is
    not re-sealed fails to load, where version 1 hashed the blob only."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["layers"][1]["spec"]["qp_pre_sig"].__setitem__(1, 4.0),
            _bump_sig_intercept,
            lambda doc: max(tensor_refs(doc), key=lambda ref: ref["offset"]).update(offset=0),
            lambda doc: doc.update(seal=doc["seal"].upper()),
        ],
        ids=["qparam-max", "pwl-intercept", "tensor-offset", "seal-itself"],
    )
    def test_unsealed_manifest_edit_rejected(self, tmp_path, edit):
        _, im = calibrated_int_model(np.random.default_rng(43), ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        doc = read_manifest(path)
        edit(doc)
        write_manifest(path, doc, reseal=False)
        with pytest.raises(serialize.ModelFormatError, match="checksum mismatch"):
            serialize.load(str(path))

    def test_seal_covers_the_blob_and_ignores_layout(self, tmp_path):
        _, im = calibrated_int_model(np.random.default_rng(44), ["lstm"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        doc = read_manifest(path)
        assert doc["seal"] == serialize.seal(doc, (tmp_path / "m.json.blob").read_bytes())
        # same body, other whitespace and key order
        write_manifest(path, doc, reseal=False, dumps=lambda d: json.dumps(d, indent=2))
        serialize.load(str(path))
        blob = bytearray((tmp_path / "m.json.blob").read_bytes())
        blob[-1] ^= 1
        assert doc["seal"] != serialize.seal(doc, bytes(blob))


class TestGoldenFormat:
    """Models written once in format 6 from the format-5 fixtures (the
    attention decoder's ``attn`` fields lifted into its ``spec``, without
    ``qp_h_dec`` and ``qp_enc``, and re-sealed over the same blobs), every
    layer type in each, which are written back unchanged."""

    def assert_saves_as(self, model, tmp_path, name):
        # the deflated bytes depend on the zlib build, so the inflated document is compared
        serialize.save(model, str(tmp_path / name))
        saved, golden = (d / name for d in (tmp_path, DATA))
        assert saved.read_bytes()[4:8] == b"\0\0\0\0"  # the gzip header's mtime
        assert gzip.decompress(saved.read_bytes()) == gzip.decompress(golden.read_bytes())
        assert Path(f"{saved}.blob").read_bytes() == Path(f"{golden}.blob").read_bytes()

    @pytest.mark.parametrize("name", ["golden_int.v6.json", "golden_float.v6.json"])
    def test_v6_loads_and_saves_back_byte_identical(self, tmp_path, name):
        assert read_manifest(DATA / name)["version"] == 6
        self.assert_saves_as(serialize.load(str(DATA / name)), tmp_path, name)

    @pytest.mark.parametrize("name", ["golden_int.v5.json", "golden_float.v5.json"])
    def test_version_5_manifest_must_be_converted_again(self, name):
        # the format-5 files of these models, the decoder's attention nested under its spec
        assert read_manifest(DATA / name)["version"] == 5
        with pytest.raises(serialize.ModelFormatError, match="unsupported manifest version 5: convert the model again"):
            serialize.load(str(DATA / name))

    @pytest.mark.parametrize("name", ["golden_int.v4.json", "golden_float.v4.json"])
    def test_version_4_manifest_must_be_converted_again(self, name):
        # the format-4 files of these models, with endianness, blob, config and tensor lengths
        assert read_manifest(DATA / name)["version"] == 4
        with pytest.raises(serialize.ModelFormatError, match="unsupported manifest version 4: convert the model again"):
            serialize.load(str(DATA / name))

    def test_version_3_manifest_must_be_converted_again(self):
        # the format-3 file of this model, its qparams and tensors kept in registries
        assert read_manifest(DATA / "golden_int.v3.json")["version"] == 3
        with pytest.raises(serialize.ModelFormatError, match="unsupported manifest version 3: convert the model again"):
            serialize.load(str(DATA / "golden_int.v3.json"))

    def test_int_run_matches_oracle_and_stored_logits(self):
        expected = json.loads((DATA / "golden_int.expected.json").read_text())
        tokens = np.array(expected["tokens"])
        model = serialize.load(str(DATA / "golden_int.v6.json"))
        got = run(model, tokens)
        assert np.array_equal(got, run_reference(model, tokens))
        assert got.tolist() == expected["logits"]

    def test_int_blob_is_the_version_2_blob(self):
        # formats 3 to 6 changed the manifest only; this is the SHA-256 of golden_int.v2.json.blob
        blob = (DATA / "golden_int.v6.json.blob").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == "6ac401119efcd558e20f783ca24015f162c3586d970faa5e2beea0fee03e0304"


class TestExactActivations:
    def test_tables_equal_build_lut(self):
        """Sigmoid and tanh on 8- and 16-bit input grids and exp on its 16-bit
        grid (the mixed-precision layout has no 8-bit exp input)."""
        seen = set()
        for gate_bits in (8, 16):
            rng = np.random.default_rng(50 + gate_bits)
            _, im = calibrated_int_model(rng, ["lstm", "attn"], gate_bits=gate_bits, cell_bits=16)
            exact = exact_activations(im)
            tables = pwl_tables(exact)
            assert len(tables) == len(engine_grids(exact)) == 8
            for src, t, grid in zip(pwl_tables(im), tables, engine_grids(exact)):
                assert t is src and grid.dtype == src.grid_out.dtype
                assert np.array_equal(grid, build_lut(ACTIVATIONS[t.fn_name], t.in_qp, t.out_qp))
                seen.add((t.fn_name, t.in_qp.bitwidth))
        assert seen == {(f, b) for f in ("sigmoid", "tanh") for b in (8, 16)} | {("exp", 16)}

    def test_layers_shared_and_no_spec_rebuilt(self, monkeypatch):
        """The copy is the model's own layers with a second engine: no spec
        is rebuilt, so no PWL table is searched for again."""
        _, im = calibrated_int_model(np.random.default_rng(56), ["bilstm", "lstm_norm", "attn"])

        def forbidden(*args, **kwargs):
            raise AssertionError("exact_activations rebuilt a spec")

        for owner, name in ((lstm, "build_pwl"), (attention, "build_pwl")):
            monkeypatch.setattr(owner, name, forbidden)
        for cls in (lstm.QuantLstmSpec, runtime.IntBiLstm, attention.QuantAttnDecoderSpec):
            monkeypatch.setattr(cls, "__post_init__", forbidden)
        exact = exact_activations(im)
        assert len(exact.layers) == len(im.layers) == 5
        assert all(a is b for a, b in zip(exact.layers, im.layers))
        assert exact.input_qp == im.input_qp

    def test_source_model_untouched(self, tmp_path):
        rng = np.random.default_rng(52)
        _, im = calibrated_int_model(rng, ["bilstm", "lstm_norm", "attn"])
        before = [t.grid_out.copy() for t in pwl_tables(im)]
        assert all(np.array_equal(g, t.grid_out) for g, t in zip(engine_grids(im), pwl_tables(im)))
        engine = [g.copy() for g in engine_grids(im)]
        exact = exact_activations(im)
        assert all(np.array_equal(a, t.grid_out) for a, t in zip(before, pwl_tables(im)))
        assert all(np.array_equal(a, g) for a, g in zip(engine, engine_grids(im)))
        seq = rng.integers(0, 6, size=6)
        assert np.array_equal(run(im, seq), run_reference(im, seq))
        assert not np.array_equal(run(exact, seq), run(im, seq))
        # save describes the PWL form, which the copy shares with its source
        for name, model in (("a", im), ("b", exact)):
            (tmp_path / name).mkdir()
            serialize.save(model, str(tmp_path / name / "m.json"))
        for f in ("m.json", "m.json.blob"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_bilstm_lane_tables_rebuilt(self):
        """The BiLSTM's concatenated lane tables hold both directions' exact
        tables, so the copy runs no stale PWL entry."""
        rng = np.random.default_rng(55)
        _, im = calibrated_int_model(rng, ["bilstm"])
        cells, src, lanes = im.layers[1].cells, im.engine[1], exact_activations(im).engine[1]

        def lut(t):
            return build_lut(ACTIVATIONS[t.fn_name], t.in_qp, t.out_qp)

        gates = np.concatenate([lut(t) for c in cells for t in (c.pwl_sig, c.pwl_tanh_j)])
        assert np.array_equal(lanes.gate_table, gates)
        assert np.array_equal(lanes.tanh_c_table, np.concatenate([lut(c.pwl_tanh_c) for c in cells]))
        assert not np.array_equal(src.gate_table, lanes.gate_table)
        assert not np.array_equal(src.tanh_c_table, lanes.tanh_c_table)

    @pytest.mark.parametrize("arch", [["bilstm", "lstm_norm", "lstm", "residual"], ["lstm", "attn"]])
    def test_run_equals_true_function_oracle(self, monkeypatch, arch):
        rng = np.random.default_rng(53)
        _, im = calibrated_int_model(rng, arch, cell_bits=16)
        exact = exact_activations(im)
        seqs = [rng.integers(0, 6, size=T) for T in (1, 7)]
        got = [run(exact, seq) for seq in seqs]
        use_true_functions(monkeypatch)
        for g, seq in zip(got, seqs):
            assert np.array_equal(g, run_reference(im, seq))

    def test_full_knot_tables_are_already_exact(self):
        # with a knot at every point of 8-bit grids the PWL form is the LUT
        rng = np.random.default_rng(54)
        _, im = calibrated_int_model(rng, ["lstm", "bilstm"], pieces=255)
        seq = rng.integers(0, 6, size=6)
        assert np.array_equal(run(exact_activations(im), seq), run(im, seq))


def test_each_model_builds_its_engine_once(monkeypatch, tmp_path):
    """``convert``, ``load`` and ``exact_activations`` each build every
    layer's lanes and attention constants once, and ``save`` builds none."""
    built = Counter()

    def counted(name, cls):
        def build(*args):
            built[name] += 1
            return cls(*args)

        return build

    for name in ("LstmLanes", "AttentionConsts"):
        monkeypatch.setattr(runtime, name, counted(name, getattr(runtime, name)))
    once = {"LstmLanes": 3, "AttentionConsts": 1}  # BiLSTM, MadNorm-LSTM, decoder
    _, im = calibrated_int_model(np.random.default_rng(57), ["bilstm", "lstm_norm", "attn"])
    assert built == once
    path = str(tmp_path / "m.json")
    steps = ((lambda: serialize.save(im, path), {}), (lambda: serialize.load(path), once), (lambda: exact_activations(im), once))
    for step, want in steps:
        built.clear()
        step()
        assert built == want


def _feature_model(rng):
    model = FloatModel([LstmLayer(random_cell(rng, 3, 2)), FinalProjectionLayer(rng.normal(0, 1, (4, 3)), np.zeros(4))])
    return model, calibrate(model, [rng.normal(0, 1, (6, 2))])


class TestNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "stage, side",
        [("L1.mx", 1), ("L2.bwd.h", 0), ("L2.fwd.h", 1), ("L3.attn.exp_in", 0), ("L3.attn.exp_out", 1), ("L3.ms", 0)],
    )
    def test_convert_names_the_non_finite_stage(self, stage, side, bad):
        rng = np.random.default_rng(60)
        model = token_model(rng, ["lstm", "bilstm", "attn"])
        ranges = calibrate(model, [rng.integers(0, 6, 8)])
        bound = list(ranges[stage])
        bound[side] = bad if side else -bad
        ranges[stage] = tuple(bound)
        short = stage.rsplit(".", 1)[1]
        with pytest.raises(DegenerateRangeError, match=f"stage '{short}': range .* is not finite"):
            convert(model, ranges)

    def test_convert_names_a_non_finite_input_stage(self):
        model, ranges = _feature_model(np.random.default_rng(61))
        ranges["input"] = (float("nan"), 1.0)
        with pytest.raises(DegenerateRangeError, match="stage 'input': range .* is not finite"):
            convert(model, ranges)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_run_rejects_non_finite_frames(self, bad):
        rng = np.random.default_rng(62)
        model, ranges = _feature_model(rng)
        im = convert(model, ranges)
        x = rng.normal(0, 1, (5, 2))
        x[3, 1] = bad
        for fn in (run, run_reference):
            with pytest.raises(ValueError, match="must be finite"):
                fn(im, x)


class TestAccumulatorLimit:
    """``run == run_reference`` with every product at its extreme over
    ``MAX_REDUCE_DIM`` terms and the bias at its limit: the accumulator
    comes within 2% of the int32 range and must not wrap."""

    TOP = 255 * 255 * MAX_REDUCE_DIM + _BIAS_LIMIT

    @pytest.mark.parametrize("sign", [1, -1])
    def test_projection_at_max_reduce_dim(self, sign):
        k = MAX_REDUCE_DIM
        qp_w = compute_qparams(min(sign, 0), max(sign, 0), 8)  # weights sit at the grid end far from zero
        qp_in = compute_qparams(0.0, 1.0, 8)
        w_q = np.full((2, k), 255 if sign > 0 else 0, dtype=np.uint8)
        bias = np.array([_BIAS_LIMIT, -_BIAS_LIMIT], dtype=np.int32) * sign
        im = IntModel([IntProjection(w_q, qp_w, bias, qp_in)], qp_in)
        x = np.ones((2, k))
        got = run(im, x)
        assert np.array_equal(got, run_reference(im, x))
        assert got[0, 0] == sign * self.TOP

    @pytest.mark.parametrize("sign", [1, -1])
    def test_lstm_at_max_reduce_dim(self, sign):
        m, k = 2, MAX_REDUCE_DIM
        w = LstmWeights(np.full((4 * m, k), sign * 0.01), np.full((4 * m, m), 0.3), np.zeros(4 * m))
        model = FloatModel([LstmLayer(w)])
        x = np.ones((3, k))
        spec = convert(model, calibrate(model, [x, 0 * x]), pieces=4).layers[0].spec
        bias = np.where(np.arange(4 * m) % 2, -_BIAS_LIMIT, _BIAS_LIMIT).astype(np.int32)
        im = IntModel([IntLstm(replace(spec, bias_q=bias))], spec.qp_x)
        acc = int_matmul(centred(spec.w_x_q, spec.qp_wx), stored(x[0], spec.qp_x) - np.int32(spec.qp_x.zero_point)) + bias
        assert np.abs(acc.astype(np.int64)).max() == self.TOP
        assert np.array_equal(run(im, x).data, run_reference(im, x))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_attention_decoder_at_max_reduce_dim(self, sign):
        # the decoder attends over its own input: w_x, w_k and w_s all contract MAX_REDUCE_DIM
        # terms; T = 3 keeps the quadratic attention oracle small.  The float bias centres the
        # calibrated gate sums.  Without it every gate saturates in calibration and the
        # cell-state range comes out about 1e-143 wide: a separate edge from the accumulator's,
        # not what this test checks.
        m, a, k = 2, 2, MAX_REDUCE_DIM
        end = np.full((4 * m, k), sign * 0.01)
        cell = LstmWeights(end, np.full((4 * m, m), 0.3), np.full(4 * m, -sign * 0.02 * k))
        attn = attention.AttentionWeights(np.full((a, m), 0.3), end[:a], np.full(a, 0.5), end)
        model = FloatModel([AttentionDecoderLayer(cell, attn)])
        x = np.ones((3, k))
        dec = convert(model, calibrate(model, [x, 0 * x]), pieces=4).layers[0].spec
        bias = np.where(np.arange(4 * m) % 2, -_BIAS_LIMIT, _BIAS_LIMIT).astype(np.int32)
        dec = replace(dec, cell=replace(dec.cell, bias_q=bias))
        q_x = stored(x, dec.cell.qp_x)
        d_x = q_x - np.int32(dec.cell.qp_x.zero_point)
        h = np.full(m, dec.cell.qp_h.zero_point, dtype=np.uint8)
        im = IntModel([IntAttnDecoder(dec)], dec.cell.qp_x)
        _, a = im.engine[0]
        q_s, _ = attention.attention_int(h, attention.attention_keys(q_x, a), a)
        acc_x = int_matmul(centred(dec.cell.w_x_q, dec.cell.qp_wx), d_x[0]) + bias
        acc_k = int_matmul(d_x, a.w_k.T)
        acc_s = int_matmul(a.w_s, q_s - dec.qp_s.zero_point)
        assert np.abs(acc_x.astype(np.int64)).max() == self.TOP
        assert np.abs(acc_k).max() == np.abs(acc_s).max() == self.TOP - _BIAS_LIMIT
        assert np.array_equal(run(im, x).data, run_reference(im, x))


def test_quant_tensors_per_run_do_not_grow_with_length(monkeypatch):
    """Layers pass raw arrays: ``run`` wraps a sequence model's output in
    one QuantTensor, and a logits model's in none."""
    rng = np.random.default_rng(74)
    _, logits = calibrated_int_model(rng, ["lstm", "lstm_norm", "attn"])
    sequence = IntModel(logits.layers[:-1], logits.input_qp)
    made, init = [], QuantTensor.__post_init__

    def counting(self):
        made.append(self.data.shape)
        init(self)

    monkeypatch.setattr(QuantTensor, "__post_init__", counting)
    for im, want in ((logits, 0), (sequence, 1)):
        for T in (3, 9):
            made.clear()
            run(im, rng.integers(0, 6, size=T))
            assert len(made) == want, (T, made)


class TestRowBlocks:
    """Whole-sequence stages (the input's quantization, a residual add, the
    final projection) run on blocks of ``BLOCK_ELEMENTS`` input elements."""

    N, M, VOCAB = 37, 16, 6  # 37 does not divide the block
    # the input's float64 copy of a block (8 bytes an element) and its finiteness check set the most
    SCRATCH_PER_ELEMENT = 12

    @pytest.fixture(scope="class")
    def frame_model(self):
        """LSTM -> LSTM -> residual -> projection on frames."""
        rng = np.random.default_rng(91)
        model = token_model(rng, ["lstm", "lstm", "residual"], vocab=self.VOCAB, m=self.M, frames=self.N)
        return convert(model, calibrate(model, [rng.normal(0, 1, (40, self.N))]), pieces=6)

    @pytest.fixture(scope="class")
    def bilstm_model(self):
        """BiLSTM -> residual (the BiLSTM's output onto itself) -> projection on frames."""
        rng = np.random.default_rng(95)
        cells = [random_cell(rng, self.M, self.N) for _ in range(2)]
        head = FinalProjectionLayer(rng.normal(0, 0.5, (self.VOCAB, 2 * self.M)), rng.normal(0, 0.1, self.VOCAB))
        model = FloatModel([BiLstmLayer(*cells), ResidualAddLayer(skip_from=0), head])
        return convert(model, calibrate(model, [rng.normal(0, 1, (40, self.N))]), pieces=6)

    def block_rows(self):
        """Rows per block of the input, the residual and the projection."""
        return [BLOCK_ELEMENTS // w for w in (self.N, 2 * self.M, self.M)]

    def test_run_equals_reference_across_block_edges(self, frame_model):
        lengths = {1} | {t for b in self.block_rows() for t in (b - 1, b, b + 1, 3 * b + 1)}
        rng = np.random.default_rng(92)
        for T in sorted(lengths):
            x = rng.normal(0, 1.2, (T, self.N)).astype(np.float32)
            out = run(frame_model, x)
            assert out.dtype == np.int32 and out.shape == (T, self.VOCAB)
            assert np.array_equal(out, run_reference(frame_model, x)), T

    def test_late_non_finite_frame_rejected_and_frames_untouched(self, frame_model):
        b = self.block_rows()[0]
        rng = np.random.default_rng(93)
        x = rng.normal(0, 1, (3 * b + 1, self.N)).astype(np.float32)
        x.setflags(write=False)  # a write to the caller's frames raises
        before = x.copy()
        run(frame_model, x)
        assert np.array_equal(x, before)
        bad = x.copy()
        bad[-1, -1] = np.nan
        with pytest.raises(ValueError, match="input frames must be finite"):
            run(frame_model, bad)

    def test_scratch_does_not_grow_with_length(self, frame_model, bilstm_model, monkeypatch):
        """Each stage's traced peak, less the bytes live before it and the
        output it returns, is the same at T and at 4T, and at most
        ``SCRATCH_PER_ELEMENT`` bytes per element of one block.  The stages
        are the input's quantization and each layer.  Per stage, because
        ``run`` frees each output after its last reader, and the logits do
        not exist yet when the residual peaks, so the whole run's peak less
        the bytes it keeps changes with T even when no stage's scratch does.
        "The same" is within 512 bytes: a few dozen bytes per block left for
        the garbage collector would exceed it.  The BiLSTM stack holds the
        two stages that once failed this: a BiLSTM that stacked its frames
        with their reverse and kept its stacked states, which grew with T,
        and a residual add that took 33 bytes per block element."""
        scratch = []

        def traced(fn):
            def stage(*args):
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = fn(*args)
                scratch.append(tracemalloc.get_traced_memory()[1] - live - out.nbytes)
                return out

            return stage

        monkeypatch.setattr(runtime, "_prepare_input", traced(runtime._prepare_input))
        for cls in {type(layer) for model in (frame_model, bilstm_model) for layer in model.layers}:
            monkeypatch.setattr(cls, "run", traced(cls.run))
        rng = np.random.default_rng(94)
        for model in (bilstm_model, frame_model):
            per_length = []
            for T in (300, 1200):  # two full blocks of every stage at least
                x = rng.normal(0, 1, (T, self.N)).astype(np.float32)
                run(model, x)  # warm-up
                scratch.clear()
                tracemalloc.start()
                try:
                    run(model, x)
                finally:
                    tracemalloc.stop()
                per_length.append(np.array(scratch))
            assert len(per_length[0]) == 1 + len(model.layers)
            assert np.abs(per_length[1] - per_length[0]).max() < 512, per_length
            assert max(per_length[1]) <= self.SCRATCH_PER_ELEMENT * BLOCK_ELEMENTS, per_length

    def test_run_frees_outputs_that_no_later_layer_reads(self, frame_model, monkeypatch):
        """Once the residual (skipping from layer 0) has run, no later layer
        reads either LSTM's output, so the projection runs with the
        residual's output alone live: the run's traced bytes at its start
        are that output's, where holding both LSTMs' outputs as well would
        triple them."""
        assert [type(layer) for layer in frame_model.layers] == [IntLstm, IntLstm, IntResidual, IntProjection]
        live = []
        project = IntProjection.run

        def traced(self, x, outputs, part):
            live.append(tracemalloc.get_traced_memory()[0])
            return project(self, x, outputs, part)

        monkeypatch.setattr(IntProjection, "run", traced)
        x = np.random.default_rng(96).normal(0, 1, (1200, self.N)).astype(np.float32)
        run(frame_model, x)  # warm-up
        tracemalloc.start()
        try:
            run(frame_model, x)
        finally:
            tracemalloc.stop()
        residual_out = 1200 * self.M  # uint8 storage
        assert residual_out <= live[-1] < residual_out + 2048, live


class TestResidualTerms:
    """A residual add gathers each operand's rounded term from a table over
    the 256 storage values and adds the two."""

    @staticmethod
    def residual(ratio_a, ratio_b, za, zb, zp):
        def qp(scale, zero_point):
            return QuantParams(-scale * zero_point, scale * (255 - zero_point), 8, scale, zero_point)

        return IntResidual(0, qp(ratio_a * 0.01, za), qp(ratio_b * 0.01, zb), qp(0.01, zp))

    # operand-to-output scale ratios, and the type that holds every sum of two terms: below 1;
    # above 1, a negative shift folded into the mantissa; terms past int16 alone, and each in
    # int16 with their sums past it; terms past int32
    @pytest.mark.parametrize(
        "ratios, dtype",
        [
            ((0.37, 0.81), np.int16),
            ((3.7, 1.3), np.int16),
            ((300.0, 0.5), np.int32),
            ((120.0, 120.0), np.int32),
            ((2.0**24, 0.003), np.int64),
            ((0.5, 3e9), np.int64),
        ],
    )
    def test_tables_equal_rescale_add_on_every_storage_pair(self, ratios, dtype):
        layer = self.residual(*ratios, za=3, zb=200, zp=77)
        assert layer.t_a.dtype == layer.t_b.dtype == dtype
        a, b = np.divmod(np.arange(1 << 16).reshape(256, 256), 256)
        a, b = a.astype(np.uint8), b.astype(np.uint8)
        terms = np.stack((a.astype(np.int64) - 3, b.astype(np.int64) - 200), axis=-2)
        want = rescale_add(terms, Rescale.of([[layer.m_a], [layer.m_b]], 77, 0, 255))
        got = layer.run(b, [a], None)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
