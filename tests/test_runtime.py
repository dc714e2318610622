"""Runtime: calibration, conversion, integer execution and serialization."""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import calibrated_int_model, random_cell, token_model
from qlstm import floatguard, serialize
from qlstm.pwl import ACTIVATIONS, build_lut, eval_pwl_int
from qlstm.quant import _BIAS_LIMIT, MAX_REDUCE_DIM, DegenerateRangeError, compute_qparams
from qlstm.runtime import (
    EmbeddingLayer,
    FinalProjectionLayer,
    FloatModel,
    IntModel,
    IntProjection,
    LstmLayer,
    calibrate,
    convert,
    dequantize_model,
    forward_float,
    run,
    run_reference,
    validate_chain,
)


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
        im = convert(model, ranges, pieces=8, cell_bits=16, gate_bits=16, candidates=512)
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
        for spec, name in ((lstm, "w_x_q"), (dec.attn, "w_k_q"), (dec, "w_s_q")):
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

    def test_no_float_ops_on_integer_path(self):
        rng = np.random.default_rng(13)
        _, im = calibrated_int_model(rng, ["bilstm", "lstm_norm", "attn"])
        seq = rng.integers(0, 6, size=5)
        with floatguard.trace_float_ops() as count:
            run(im, seq)
            assert count() == 0
        # positive control: the hybrid engine does touch floats
        with floatguard.trace_float_ops() as count:
            run(im, seq, float_act=True)
            assert count() > 0

    def test_env_var_enables_tracing_guard(self, monkeypatch):
        rng = np.random.default_rng(23)
        _, im = calibrated_int_model(rng, ["lstm"])
        seq = rng.integers(0, 6, size=4)
        monkeypatch.setenv("QLSTM_FLOAT_TRACE", "1")
        baseline = run(im, seq)  # guarded run passes on a clean integer path
        assert np.array_equal(baseline, run_reference(im, seq))

    def test_manifest_layer_type_tags(self, tmp_path):
        rng = np.random.default_rng(24)
        _, im = calibrated_int_model(rng, ["lstm_norm", "lstm", "attn"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        doc = json.loads((tmp_path / "m.json").read_text())
        kinds = [d["type"] for d in doc["layers"]]
        assert kinds == ["embedding", "madnorm_lstm", "lstm", "attention_decoder", "final_projection"]

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
            assert im2.config["cell_bits"] == bits

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
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["version"] = 2
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(serialize.ModelFormatError, match="version"):
            serialize.load(path)

    def test_chain_inconsistency_rejected(self, tmp_path):
        rng = np.random.default_rng(20)
        _, im = calibrated_int_model(rng, ["lstm"])
        path = str(tmp_path / "m.json")
        serialize.save(im, path)
        doc = json.loads((tmp_path / "m.json").read_text())
        key = doc["layers"][1]["qparams"]["x"]
        doc["qparams"][key]["scale"] *= 1.5
        doc["qparams"][key]["max"] *= 1.5
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="chain"):
            serialize.load(path)

    @pytest.mark.parametrize("skip_from", [7, -1, 3])
    def test_residual_skip_out_of_range_rejected(self, tmp_path, skip_from):
        rng = np.random.default_rng(29)
        _, im = calibrated_int_model(rng, ["lstm", "lstm", "residual"])
        path = tmp_path / "m.json"
        serialize.save(im, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][3]["skip_from"] = skip_from
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="residual skip"):
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


class TestGoldenFormat:
    """Models written by an earlier version of the code, every layer type in
    each: the format must keep reading them and writing them back unchanged."""

    DATA = Path(__file__).resolve().parent / "data"

    @pytest.mark.parametrize("name", ["golden_int.json", "golden_float.json"])
    def test_loads_and_saves_back_byte_identical(self, tmp_path, name):
        model = serialize.load(str(self.DATA / name))
        kinds = [d["type"] for d in json.loads((self.DATA / name).read_text())["layers"]]
        assert len(model.layers) == len(kinds) == 7
        assert set(kinds) == {
            "embedding", "lstm", "madnorm_lstm", "bilstm", "attention_decoder", "residual_add", "final_projection"
        }
        serialize.save(model, str(tmp_path / name))
        for suffix in ("", ".blob"):
            assert (tmp_path / (name + suffix)).read_bytes() == (self.DATA / (name + suffix)).read_bytes()

    def test_int_run_matches_oracle_and_stored_logits(self):
        model = serialize.load(str(self.DATA / "golden_int.json"))
        expected = json.loads((self.DATA / "golden_int.expected.json").read_text())
        tokens = np.array(expected["tokens"])
        got = run(model, tokens)
        assert np.array_equal(got, run_reference(model, tokens))
        assert got.tolist() == expected["logits"]
