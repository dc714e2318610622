"""CLI: exit codes, file formats, pipeline consistency, bench/pwl outputs."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import calibrated_int_model, edit_manifest, random_cell, token_model
from qlstm import runtime, serialize
from qlstm.cli import _peak_kb, main
from qlstm.lstm import LstmWeights
from qlstm.runtime import BiLstmLayer, EmbeddingLayer, FinalProjectionLayer, FloatModel, LstmLayer

GOLDEN_LOGITS = [
    [7477, 4542, 4150, -11874, -1451],
    [-1166, -8358, -608, -11070, 2453],
    [9429, -1793, -576, -17785, -9198],
    [2679, 2127, 5782, -15207, -5274],
    [564, 2912, 6341, 2775, 21221],
]


def tiny_float_model():
    rng = np.random.default_rng(2024)
    V, E, m = 5, 3, 4
    return FloatModel(
        [
            EmbeddingLayer(rng.normal(0, 1, (V, E))),
            LstmLayer(
                LstmWeights(
                    rng.normal(0, 0.4, (4 * m, E)),
                    rng.normal(0, 0.4, (4 * m, m)),
                    rng.normal(0, 0.1, 4 * m),
                )
            ),
            FinalProjectionLayer(rng.normal(0, 0.5, (V, m)), rng.normal(0, 0.1, V)),
        ]
    )


@pytest.fixture
def pipeline(tmp_path):
    """Float model + calibration data on disk, ready for the CLI."""
    model = tiny_float_model()
    fpath = str(tmp_path / "float.json")
    serialize.save(model, fpath)
    rng = np.random.default_rng(5)
    data = tmp_path / "data.txt"
    data.write_text("\n".join(" ".join(str(v) for v in rng.integers(0, 5, 8)) for _ in range(2)) + "\n")
    return tmp_path, fpath, str(data)


def run_pipeline(tmp_path, fpath, data, pieces=8):
    qp = str(tmp_path / "qp.json")
    ipath = str(tmp_path / "int.json")
    assert main(["calibrate", "--model", fpath, "--data", data, "--out", qp]) == 0
    assert main(["convert", "--model", fpath, "--qparams", qp, "--pieces", str(pieces), "--out", ipath]) == 0
    return qp, ipath


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(["calibrate", "--model", str(tmp_path / "nope.json"), "--data", "x", "--out", "y"])
        assert rc == 2
        assert "i/o error" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["calibrate", "--model"]) == 1
        assert main(["frobnicate"]) == 1

    def test_zero_pieces_is_validation_error(self, pipeline, capsys):
        tmp_path, fpath, data = pipeline
        qp, _ = run_pipeline(tmp_path, fpath, data)
        rc = main(["convert", "--model", fpath, "--qparams", qp, "--pieces", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "validation error" in capsys.readouterr().err

    def test_missing_stage_is_validation_error(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        model = token_model(rng, ["bilstm", "attn"])
        fpath = str(tmp_path / "float.json")
        serialize.save(model, fpath)
        ranges = runtime.calibrate(model, [rng.integers(0, 6, 8)])
        stages = {k: {"min": lo, "max": hi} for k, (lo, hi) in ranges.items() if k != "L1.bwd.h"}
        qp = tmp_path / "qp.json"
        qp.write_text(json.dumps({"version": 1, "stages": stages}))
        rc = main(["convert", "--model", fpath, "--qparams", str(qp), "--out", str(tmp_path / "int.json")])
        assert rc == 3
        assert "L1.bwd.h" in capsys.readouterr().err

    def test_non_finite_stage_is_validation_error(self, pipeline, capsys):
        tmp_path, fpath, data = pipeline
        qp, _ = run_pipeline(tmp_path, fpath, data)
        doc = json.loads(open(qp).read())
        doc["stages"]["L1.mx"]["min"] = float("nan")
        with open(qp, "w") as fh:
            json.dump(doc, fh)
        rc = main(["convert", "--model", fpath, "--qparams", qp, "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "stage 'mx': range [nan, " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("stages"),
            lambda doc: doc.update(stages=[]),
            lambda doc: doc["stages"].update({"L1.mx": [-1.0, 1.0]}),
            lambda doc: doc["stages"]["L1.mx"].pop("max"),
            lambda doc: doc["stages"]["L1.mx"].update(min="-1"),
            lambda doc: doc["stages"]["L1.mx"].update(max=None),
        ],
        ids=["no-stages", "stages-list", "stage-list", "no-max", "string-min", "null-max"],
    )
    def test_malformed_qparams_file_is_validation_error(self, pipeline, capsys, edit):
        tmp_path, fpath, data = pipeline
        qp, _ = run_pipeline(tmp_path, fpath, data)
        doc = json.loads(open(qp).read())
        edit(doc)
        with open(qp, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(["convert", "--model", fpath, "--qparams", qp, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("validation error: qparams ") and err.count("\n") == 1, err

    def test_non_finite_feature_frame_is_validation_error(self, tmp_path, capsys):
        rng = np.random.default_rng(78)
        model = FloatModel(
            [LstmLayer(random_cell(rng, 3, 2)), FinalProjectionLayer(rng.normal(0, 0.5, (4, 3)), np.zeros(4))]
        )
        im = runtime.convert(model, runtime.calibrate(model, [rng.normal(0, 1, (6, 2))]), pieces=4)
        ipath = str(tmp_path / "int.json")
        serialize.save(im, ipath)
        frames = rng.normal(0, 1, (4, 2)).astype("<f4")
        frames[2, 0] = np.nan
        frames.tofile(tmp_path / "frames.bin")
        args = ["run", "--model", ipath, "--input", str(tmp_path / "frames.bin"), "--out", str(tmp_path / "o.txt")]
        assert main(args + ["--input-format", "f32", "--feat-dim", "2"]) == 3
        assert "must be finite" in capsys.readouterr().err

    def test_bad_residual_skip_is_validation_error(self, tmp_path, capsys):
        _, im = calibrated_int_model(np.random.default_rng(32), ["lstm", "lstm", "residual"])
        path = tmp_path / "int.json"
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: doc["layers"][3].update(skip_from=7))
        inp = tmp_path / "input.txt"
        inp.write_text("0 1 2\n")
        assert main(["run", "--model", str(path), "--input", str(inp), "--out", str(tmp_path / "o.txt")]) == 3
        assert "residual skip" in capsys.readouterr().err


    def test_malformed_manifest_is_validation_error(self, tmp_path, capsys):
        _, im = calibrated_int_model(np.random.default_rng(33), ["lstm"])
        path = tmp_path / "int.json"
        serialize.save(im, str(path))
        edit_manifest(path, lambda doc: doc["layers"][1]["spec"].pop("w_x_q"))
        inp = tmp_path / "input.txt"
        inp.write_text("0 1 2\n")
        assert main(["run", "--model", str(path), "--input", str(inp), "--out", str(tmp_path / "o.txt")]) == 3
        assert "missing key 'w_x_q'" in capsys.readouterr().err


class TestCalibrateConvert:
    def test_qparams_file_parses_back(self, pipeline):
        tmp_path, fpath, data = pipeline
        qp, ipath = run_pipeline(tmp_path, fpath, data)
        doc = json.loads((tmp_path / "qp.json").read_text())
        assert doc["version"] == 1
        assert all("min" in v and "max" in v for v in doc["stages"].values())
        model = serialize.load(ipath)
        assert isinstance(model, runtime.IntModel)

    def test_empty_data_reports_missing_stage(self, pipeline, capsys):
        tmp_path, fpath, _ = pipeline
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = main(["calibrate", "--model", fpath, "--data", str(empty), "--out", str(tmp_path / "qp.json")])
        assert rc == 3
        assert "never observed" in capsys.readouterr().err

    def test_convert_reports_model_bytes_against_f32(self, pipeline, capsys):
        tmp_path, fpath, data = pipeline
        _, ipath = run_pipeline(tmp_path, fpath, data)
        line = capsys.readouterr().out.splitlines()[-1]
        manifest, blob = (tmp_path / "int.json").stat().st_size, (tmp_path / "int.json.blob").stat().st_size
        f32 = 4 * (5 * 3 + 16 * 3 + 16 * 4 + 16 + 5 * 4 + 5)  # embedding, LSTM, projection
        assert line == (
            f"model bytes: manifest {manifest} + blob {blob} = {manifest + blob};"
            f" f32 weights {f32} bytes, {f32 / (manifest + blob):.2f}x the model"
        )

    def test_convert_cell_bits(self, pipeline):
        tmp_path, fpath, data = pipeline
        qp, _ = run_pipeline(tmp_path, fpath, data)
        out = str(tmp_path / "int16.json")
        assert main(["convert", "--model", fpath, "--qparams", qp, "--cell-bits", "16", "--out", out]) == 0
        assert serialize.load(out).layers[1].spec.qp_c.bitwidth == 16


class TestRun:
    def test_outputs_match_library_and_golden(self, pipeline, tmp_path):
        tmp_path, fpath, data = pipeline
        _, ipath = run_pipeline(tmp_path, fpath, data)
        inp = tmp_path / "input.txt"
        inp.write_text("0 1 2 3 4\n")
        out = tmp_path / "logits.txt"
        assert main(["run", "--model", ipath, "--input", str(inp), "--out", str(out)]) == 0
        got = [[int(v) for v in line.split()] for line in out.read_text().strip().split("\n")]
        lib = runtime.run(serialize.load(ipath), np.array([0, 1, 2, 3, 4]))
        assert got == lib.tolist()
        assert got == GOLDEN_LOGITS  # pinned on first run

    def test_f32_feature_input(self, tmp_path):
        rng = np.random.default_rng(77)
        model = FloatModel(
            [
                LstmLayer(
                    LstmWeights(rng.normal(0, 0.4, (12, 2)), rng.normal(0, 0.4, (12, 3)), np.zeros(12))
                ),
                FinalProjectionLayer(rng.normal(0, 0.5, (4, 3)), np.zeros(4)),
            ]
        )
        fpath = str(tmp_path / "float.json")
        serialize.save(model, fpath)
        frames = rng.normal(0, 1, (6, 2)).astype("<f4")
        data = tmp_path / "frames.bin"
        frames.tofile(data)
        qp = str(tmp_path / "qp.json")
        ipath = str(tmp_path / "int.json")
        common = ["--input-format", "f32", "--feat-dim", "2"]
        assert main(["calibrate", "--model", fpath, "--data", str(data), "--out", qp] + common) == 0
        assert main(["convert", "--model", fpath, "--qparams", qp, "--out", ipath]) == 0
        out = tmp_path / "logits.txt"
        assert main(["run", "--model", ipath, "--input", str(data), "--out", str(out)] + common) == 0
        got = [[int(v) for v in line.split()] for line in out.read_text().strip().split("\n")]
        lib = runtime.run(serialize.load(ipath), frames.astype(np.float64))
        assert got == lib.tolist()

    def test_deterministic_across_invocations(self, pipeline, tmp_path):
        tmp_path, fpath, data = pipeline
        _, ipath = run_pipeline(tmp_path, fpath, data)
        inp = tmp_path / "input.txt"
        inp.write_text("3 1 4 1\n")
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["run", "--model", ipath, "--input", str(inp), "--out", str(out1)]) == 0
        assert main(["run", "--model", ipath, "--input", str(inp), "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestBench:
    def test_csv_schema_one_row_per_config(self, pipeline, tmp_path, capsys):
        tmp_path, fpath, data = pipeline
        _, ipath = run_pipeline(tmp_path, fpath, data)
        csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--model", ipath, "--seq-len", "8", "--warmup", "1", "--iters", "2", "--csv", str(csv)]
        )
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "config,mean_ms,peak_kb,iters_per_sec,speedup"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["float", "int_pwl", "int_float_act"]
        float_row = lines[1].split(",")
        assert float(float_row[4]) == pytest.approx(1.0)
        assert all(float(line.split(",")[2]) > 0 for line in lines[1:])

    def test_single_iteration(self, pipeline, tmp_path):
        tmp_path, fpath, data = pipeline
        _, ipath = run_pipeline(tmp_path, fpath, data)
        assert main(["bench", "--model", ipath, "--seq-len", "4", "--warmup", "0", "--iters", "1"]) == 0

    def test_feature_input_bilstm_model(self, tmp_path):
        rng = np.random.default_rng(33)
        model = FloatModel(
            [
                BiLstmLayer(random_cell(rng, 3, 2), random_cell(rng, 3, 2)),
                FinalProjectionLayer(rng.normal(0, 0.5, (4, 6)), np.zeros(4)),
            ]
        )
        im = runtime.convert(model, runtime.calibrate(model, [rng.normal(0, 1, (6, 2))]), pieces=4)
        ipath = str(tmp_path / "int.json")
        serialize.save(im, ipath)
        csv = tmp_path / "bench.csv"
        args = ["bench", "--model", ipath, "--seq-len", "5", "--warmup", "0", "--iters", "1", "--csv", str(csv)]
        assert main(args) == 0
        assert [line.split(",")[0] for line in csv.read_text().split()[1:]] == ["float", "int_pwl", "int_float_act"]

    def test_peak_under_a_running_trace(self):
        """Under the caller's trace, a call's peak is measured from the
        memory traced before it, and the trace stays on: a 16 MB array
        freed before a no-op once read as 16,000 kB and stopped the trace."""
        tracemalloc.start()
        try:
            freed = np.ones(2_000_000)
            del freed
            assert _peak_kb(lambda: None) < 100
            assert tracemalloc.is_tracing()
            assert 15_000 < _peak_kb(lambda: np.ones(2_000_000)) < 17_000
        finally:
            tracemalloc.stop()
        assert 15_000 < _peak_kb(lambda: np.ones(2_000_000)) < 17_000
        assert not tracemalloc.is_tracing()


class TestPwl:
    def parse_stats(self, out):
        fields = dict(kv.split("=") for kv in out.strip().split("\n")[-1].split())
        return float(fields["max_abs_err"]), float(fields["mean_abs_err"])

    def test_error_non_increasing_in_pieces(self, tmp_path, capsys):
        errs = []
        for pieces in (4, 8, 16, 32):
            rc = main(
                ["pwl", "--function", "tanh", "--range", "-4", "4", "--bits", "8",
                 "--pieces", str(pieces), "--out", str(tmp_path / f"t{pieces}.csv")]
            )
            assert rc == 0
            errs.append(self.parse_stats(capsys.readouterr().out)[0])
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))

    def test_identity_error_zero(self, tmp_path, capsys):
        rc = main(
            ["pwl", "--function", "identity", "--range", "-2", "2", "--bits", "8",
             "--pieces", "4", "--out", str(tmp_path / "id.csv")]
        )
        assert rc == 0
        max_err, _ = self.parse_stats(capsys.readouterr().out)
        assert max_err == 0.0

    def test_knots_cluster_at_curvature(self, tmp_path, capsys):
        # 4-piece and 16-piece tanh dumps put every interior knot in the curved core
        for pieces in (4, 16):
            out = tmp_path / f"k{pieces}.csv"
            assert main(
                ["pwl", "--function", "tanh", "--range", "-4", "4", "--bits", "8",
                 "--pieces", str(pieces), "--out", str(out)]
            ) == 0
            capsys.readouterr()
            rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
            piece_idx = np.array([int(r[4]) for r in rows])
            real_in = np.array([float(r[1]) for r in rows])
            boundaries = real_in[np.nonzero(np.diff(piece_idx))[0] + 1]
            assert np.all(np.abs(boundaries) < 3.0)

    def test_rejects_unknown_function(self, capsys):
        assert main(["pwl", "--function", "relu", "--range", "0", "1", "--pieces", "4", "--out", "x.csv"]) == 3

    def test_rejects_bad_range(self, capsys):
        assert main(["pwl", "--function", "tanh", "--range", "4", "-4", "--pieces", "4", "--out", "x.csv"]) == 3

    def test_overflowing_function_fails_in_one_line(self, tmp_path):
        # the function overflows on the grid; the one diagnostic is the range's
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        argv = ["pwl", "--function", "exp", "--range", "-1000", "1000", "--pieces", "4", "--out", "x.csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "qlstm.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("validation error: range [0.0, inf]") and proc.stderr.count("\n") == 1, proc.stderr
