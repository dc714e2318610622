"""Tests of the benchmark's own helpers (run with the package on the path)."""
import json
from pathlib import Path

import numpy as np
import pytest

from qlstm import lstm, quant, runtime

from perfbench import bench, spans, workloads
from perfbench.spans import Span, self_times
from perfbench.stats import tail_percentile


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("a.inner", 20, 30, parent=1),
        _span("b", 50, 70, parent=0),
    ]
    assert self_times(tree) == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    tree = [
        _span("root", 0, 100),
        _span("b", 50, 70, parent=0),
        _span("c", 60, 80, parent=0),  # overlaps b by 10
        _span("d", 90, 120, parent=0),  # runs past the parent's end
    ]
    assert self_times(tree)[0] == 100 - 30 - 10


@pytest.mark.parametrize("n", [11, 19, 20, 40, 57, 100, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 1.5)
    p, value, beyond = tail_percentile(samples)
    xs = sorted(samples)
    assert beyond >= 10 and value in xs
    assert xs.index(value) == n - beyond - 1
    if p < 99:
        assert n - int(np.ceil((p + 1) * n / 100)) < 10


def test_tail_known_values():
    xs = list(range(1, 101))
    assert tail_percentile(xs) == (90, 90, 10)
    assert tail_percentile(xs[:40]) == (75, 30, 10)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _tiny_int_model():
    rng = np.random.default_rng(0)
    w = lstm.LstmWeights(rng.normal(0, 0.5, (8, 3)), rng.normal(0, 0.5, (8, 2)), np.zeros(8))
    model = runtime.FloatModel([runtime.LstmLayer(w), runtime.FinalProjectionLayer(rng.normal(0, 1, (4, 2)), np.zeros(4))])
    pool = [rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (6, 3))]
    im = runtime.convert(model, runtime.calibrate(model, pool), pieces=4)
    return im, pool


def test_oracle_mismatch_and_raising_calls_count_as_failed():
    im, pool = _tiny_int_model()
    expected = [bench.as_int64(runtime.run_reference(im, s)) for s in pool]

    good = bench.ClosedLoop(lambda s: runtime.run(im, s), pool, expected)
    good.run_for(0, min_calls=4)
    assert (good.attempted, good.failed, good.steps) == (4, 0, 22)

    swapped = bench.ClosedLoop(lambda s: runtime.run(im, s), pool, expected[::-1])
    swapped.run_for(0, min_calls=4)
    assert swapped.failed == 4

    def flaky(s):
        if len(s) == 6:
            raise RuntimeError("boom")
        return runtime.run(im, s)

    loop = bench.ClosedLoop(flaky, pool, expected)
    loop.run_for(0, min_calls=4)
    assert (loop.attempted, loop.failed) == (4, 2)
    assert loop.failed / loop.attempted == 0.5


def test_instrument_records_nested_spans_and_restores_bindings():
    im, pool = _tiny_int_model()
    plain = runtime.run(im, pool[0])
    rec = spans.Recorder()
    with spans.instrument(rec):
        traced = runtime.run(im, pool[0])
    assert np.array_equal(plain, traced)
    assert lstm.int_matmul is quant.int_matmul and runtime.int_matmul is quant.int_matmul
    assert "from_float" in vars(lstm.QuantLstmSpec) and isinstance(vars(lstm.QuantLstmSpec)["from_float"], classmethod)

    names = [s.name for s in rec.spans]
    assert names[0] == "runtime.run" and rec.spans[0].parent == -1
    assert names.count("lstm.preacts") == 5 and names.count("runtime.projection") == 1
    proj = names.index("runtime.projection")
    assert rec.spans[proj + 1].name == "quant.int_matmul" and rec.spans[proj + 1].parent == proj
    # 2 matvecs per step plus the projection: (4m x n).(n) and (4m x m).(m), then (T x m).(m x V)
    assert rec.counts[0, "quant.int_matmul.macs"] == 5 * (8 * 3 + 8 * 2) + 5 * 4 * 2
    table = spans.per_sequence(rec.spans)
    total, own = table[0]["runtime.run"]
    assert 0 <= own <= total


def test_count_pass_repeats_exactly():
    im, pool = _tiny_int_model()
    first = bench.count_pass(im, pool)
    assert first == bench.count_pass(im, pool)
    assert first["floatguard.note.calls"] > 0 and first["runtime.c_calls_per_step"] > 0


def test_seed_draws_only_the_timed_pool():
    w = workloads.WORKLOADS["bilstm16"]
    a, b, c = (workloads.make_inputs(w, seed) for seed in (1, 1, 2))
    assert all(np.array_equal(x, y) for x, y in zip(a.pool, b.pool))
    assert not np.array_equal(a.pool[0], c.pool[0])
    assert [len(s) for s in a.pool] == list(w.pool_lengths)
    for fixed in ("calibration", "quality"):
        assert all(np.array_equal(x, y) for x, y in zip(getattr(a, fixed), getattr(c, fixed)))
    assert np.array_equal(a.model.layers[0].fwd.w_x, c.model.layers[0].fwd.w_x)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


@pytest.mark.parametrize("rounds", [1, 2, 5, 6, 12, 13])
def test_setups_spread_over_rounds_from_the_first(rounds):
    chosen = bench.setup_rounds(rounds)
    assert 0 in chosen and max(chosen) < rounds
    assert len(chosen) == min(rounds, bench.SETUP_REPEATS)
    if rounds >= 2 * bench.SETUP_REPEATS:
        assert max(chosen) >= rounds // 2


def test_interleave_runs_the_round_hook_before_each_round(monkeypatch):
    monkeypatch.setattr(bench, "BLOCK_S", 0.01)
    events = []
    loop = bench.ClosedLoop(lambda s: events.append("run") or s, [[0]])
    bench.interleave([loop], [1.0], 0.03, lambda r, rounds: events.append((r, rounds)))
    hooks = [i for i, e in enumerate(events) if e != "run"]
    assert [events[i] for i in hooks] == [(0, 3), (1, 3), (2, 3)]
    assert hooks[0] == 0 and all(events[i + 1] == "run" for i in hooks)
    assert loop.attempted >= bench.MIN_SAMPLES
