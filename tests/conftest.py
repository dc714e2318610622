from hypothesis import HealthCheck, settings

from qlstm import attention as att
from qlstm import lstm as L
from qlstm import quant, runtime

settings.register_profile(
    "suite", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


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


def random_attention_config(rng, *, pieces=10, candidates=256):
    m_att = int(rng.integers(2, 6))
    m_dec = int(rng.integers(2, 6))
    m_enc = int(rng.integers(2, 6))
    T = int(rng.integers(2, 9))
    w = att.AttentionWeights(
        rng.normal(0, 0.6, (m_att, m_dec)),
        rng.normal(0, 0.6, (m_att, m_enc)),
        rng.normal(0, 0.6, m_att),
        rng.normal(0, 0.6, (4 * m_dec, m_enc)),
    )
    enc = rng.normal(0, 1, (T, m_enc))
    h = rng.normal(0, 1, m_dec)
    ranges = observe(att.attention_real, h, enc, w)
    qp_h = quant.compute_qparams(float(h.min()), float(h.max()), 8)
    qp_enc = quant.compute_qparams(float(enc.min()), float(enc.max()), 8)
    spec = att.QuantAttentionSpec.from_float(
        w, ranges, qp_h, qp_enc, pieces_tanh=pieces, pieces_exp=pieces, candidates=candidates
    )
    return w, h, enc, spec


def token_model(rng, arch, vocab=6, emb=3, m=3):
    """Build a small float token model; ``arch`` names the middle layers."""
    layers = [runtime.EmbeddingLayer(rng.normal(0, 1, (vocab, emb)))]
    width = emb
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


def calibrated_int_model(rng, arch, *, pieces=6, cell_bits=8, candidates=256, vocab=6, T=8, n_batches=2):
    model = token_model(rng, arch, vocab=vocab)
    batches = [rng.integers(0, vocab, size=T) for _ in range(n_batches)]
    ranges = runtime.calibrate(model, batches)
    im = runtime.convert(model, ranges, pieces=pieces, cell_bits=cell_bits, candidates=candidates)
    return model, im
