"""Integer-only inference for LSTM networks.

Affine quantization primitives, quantization-aware piecewise-linear
activations, MAD normalization, integer LSTM/BiLSTM cells and additive
attention, plus a calibration/conversion runtime with serialization and a
CLI.  Every integer path ships with a real-arithmetic reference and an
exact fake-quantization oracle for bit-exact verification.
"""

from .quant import (
    QuantParams,
    QuantTensor,
    ScaledMultiplier,
    compute_qparams,
    dequantize,
    quantize,
)
from .pwl import PwlTable, build_lut, build_pwl, eval_pwl_int, eval_pwl_real, select_knots
from .madnorm import MadNormQParams, layernorm_real, madnorm_int, madnorm_real
from .lstm import (
    BiLstmSpec,
    LstmState,
    LstmWeights,
    QuantLstmSpec,
    QuantLstmState,
    bilstm_sequence_int,
    bilstm_sequence_real,
    lstm_sequence_int,
    lstm_sequence_real,
    lstm_step_int,
    lstm_step_real,
    madnorm_lstm_step_real,
)
from .attention import (
    AttentionWeights,
    QuantAttentionSpec,
    QuantAttnDecoderSpec,
    attention_int,
    attention_real,
    inject_context,
    softmax_int,
)
from .runtime import (
    AttentionDecoderLayer,
    BiLstmLayer,
    CalibrationObserver,
    EmbeddingLayer,
    FinalProjectionLayer,
    FloatModel,
    IntModel,
    LstmLayer,
    ResidualAddLayer,
    calibrate,
    convert,
    dequantize_model,
    run,
    run_reference,
)
from .serialize import ModelFormatError, ModelManifest, load, save

__all__ = [name for name in dir() if not name.startswith("_")]
