"""Runtime: calibration, conversion, integer execution and serialization."""
import json

import numpy as np
import pytest

from conftest import calibrated_int_model, random_cell, token_model
from qlstm import floatguard, serialize
from qlstm.pwl import ACTIVATIONS, build_lut, eval_pwl_int
from qlstm.quant import MAX_REDUCE_DIM, DegenerateRangeError
from qlstm.runtime import (
    EmbeddingLayer,
    FinalProjectionLayer,
    FloatModel,
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
