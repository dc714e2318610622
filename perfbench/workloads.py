"""The benchmark's workloads: fixed float models and seeded input sequences.

A workload's float model, its calibration sequences and its quality
sequences are drawn from a constant seed, so every run measures the same
deployed network and the float-reference error is deterministic; the
benchmark seed draws the small pool of timed sequences.  The package under
test sees only the generated arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qlstm.attention import AttentionWeights
from qlstm.lstm import LstmWeights
from qlstm.runtime import (
    AttentionDecoderLayer,
    BiLstmLayer,
    EmbeddingLayer,
    FinalProjectionLayer,
    FloatModel,
    LstmLayer,
    ResidualAddLayer,
)


MODEL_SEED = 2021


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: dict
    config: dict  # keyword arguments of runtime.convert
    build: Callable  # rng -> FloatModel
    sequence: Callable  # (rng, length) -> one input sequence
    calib_lengths: tuple  # one calibration sequence per entry
    pool_lengths: tuple  # one timed sequence per entry, each checked against its oracle output
    quality_lengths: tuple  # fixed untimed sequences for the float-reference error


def _cell(rng, m: int, n: int) -> LstmWeights:
    return LstmWeights(
        rng.normal(0, 1 / np.sqrt(n), (4 * m, n)),
        rng.normal(0, 1 / np.sqrt(m), (4 * m, m)),
        rng.normal(0, 0.1, 4 * m),
    )


def _projection(rng, vocab: int, m: int) -> FinalProjectionLayer:
    return FinalProjectionLayer(rng.normal(0, 1 / np.sqrt(m), (vocab, m)), rng.normal(0, 0.1, vocab))


def _frames(rng, length: int, dim: int) -> np.ndarray:
    return rng.normal(0, 1, (length, dim)).astype(np.float32)


def _build_cell400(rng) -> FloatModel:
    return FloatModel([LstmLayer(_cell(rng, 400, 400))])


def _build_seq2seq(rng) -> FloatModel:
    vocab, emb, m = 50, 16, 32
    attn = AttentionWeights(
        rng.normal(0, 1 / np.sqrt(m), (m, m)),
        rng.normal(0, 1 / np.sqrt(m), (m, m)),
        rng.normal(0, 1 / np.sqrt(m), m),
        rng.normal(0, 1 / np.sqrt(m), (4 * m, m)),
    )
    return FloatModel(
        [
            EmbeddingLayer(rng.normal(0, 1, (vocab, emb))),
            LstmLayer(_cell(rng, m, emb)),
            LstmLayer(_cell(rng, m, m), norm=True),
            AttentionDecoderLayer(_cell(rng, m, m), attn),
            _projection(rng, vocab, m),
        ]
    )


def _build_bilstm16(rng) -> FloatModel:
    n, m, out = 40, 64, 32
    return FloatModel(
        [
            BiLstmLayer(_cell(rng, m, n), _cell(rng, m, n)),
            BiLstmLayer(_cell(rng, m, 2 * m), _cell(rng, m, 2 * m)),
            ResidualAddLayer(skip_from=0),
            _projection(rng, out, 2 * m),
        ]
    )


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="cell400",
            why=(
                "One m=n=400 LSTM cell, 8 pieces, T=128: int32 matvecs are most of the time, "
                "so matmul changes show here and per-call overhead cuts show little."
            ),
            shapes=dict(layers="LSTM(400)", input="f32 frames", n=400, m=400, T=128),
            config=dict(pieces=8, cell_bits=8, gate_bits=8),
            build=_build_cell400,
            sequence=lambda rng, t: _frames(rng, t, 400),
            calib_lengths=(128, 128),
            pool_lengths=(128,),
            quality_lengths=(128, 128),
        ),
        Workload(
            name="seq2seq",
            why=(
                "Embedding, LSTM, MadNorm-LSTM, attention decoder and projection on 32-wide "
                "matrices, T=64: per-call numpy overhead dominates; the only MadNorm and attention."
            ),
            shapes=dict(
                layers="Embedding(50,16) LSTM(32) MadNorm-LSTM(32) AttnDecoder(32) Projection(50)",
                input="token ids", V=50, E=16, m=32, T=64,
            ),
            config=dict(pieces=16, cell_bits=8, gate_bits=8),
            build=_build_seq2seq,
            sequence=lambda rng, t: rng.integers(0, 50, t),
            calib_lengths=(64,) * 4,
            pool_lengths=(64, 64),
            quality_lengths=(64,) * 8,
        ),
        Workload(
            name="bilstm16",
            why=(
                "Two BiLSTM(64) layers, a residual add and a projection with 16-bit cell and gates, "
                "utterances of 50-150 frames: 16-bit knot search dominates set-up and PWL eval dominates runs."
            ),
            shapes=dict(
                layers="BiLSTM(64) BiLSTM(64) Residual(skip 0) Projection(32)",
                input="f32 frames", n=40, m=64, T="50-150",
            ),
            config=dict(pieces=16, cell_bits=16, gate_bits=16),
            build=_build_bilstm16,
            sequence=lambda rng, t: _frames(rng, t, 40),
            # lengths spread evenly over 50-150 frames, so that the median
            # sequence is the same length whatever the seed
            calib_lengths=(100,) * 4,
            pool_lengths=(50, 100, 150),
            quality_lengths=(50, 100, 150),
        ),
    ]
}


@dataclass
class Inputs:
    model: FloatModel
    calibration: list
    pool: list
    quality: list


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's fixed model, calibration and quality sets, and the timed pool of ``seed``."""
    model_rng, calib_rng, quality_rng = map(np.random.default_rng, np.random.SeedSequence(MODEL_SEED).spawn(3))
    pool_rng = np.random.default_rng(seed)
    return Inputs(
        model=workload.build(model_rng),
        calibration=[workload.sequence(calib_rng, t) for t in workload.calib_lengths],
        pool=[workload.sequence(pool_rng, t) for t in workload.pool_lengths],
        quality=[workload.sequence(quality_rng, t) for t in workload.quality_lengths],
    )
