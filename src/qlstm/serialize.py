"""Model serialization: a UTF-8 JSON manifest plus a little-endian tensor blob.

The manifest carries the layer graph, every per-stage quantization parameter,
PWL tables (both real and integer form) and references into the blob as
(offset, length) pairs.  Each layer class encodes and decodes its own
descriptor through the writer and reader below; ``_LAYER_TYPES`` maps the
descriptors' type tags back to the classes.  Floats round-trip exactly through JSON (shortest
repr), integer constants are stored verbatim, so ``load(save(m))`` runs
bit-identically to ``m``.  The blob is integrity-checked with SHA-256.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .attention import QuantAttentionSpec
from .lstm import QuantLstmSpec
from .madnorm import MadNormQParams
from .pwl import PwlTable
from .quant import QuantParams
from .runtime import (
    AttentionDecoderLayer,
    BiLstmLayer,
    EmbeddingLayer,
    FinalProjectionLayer,
    FloatModel,
    IntAttnDecoder,
    IntBiLstm,
    IntEmbedding,
    IntLstm,
    IntModel,
    IntProjection,
    IntResidual,
    LstmLayer,
    ResidualAddLayer,
    validate_chain,
)

FORMAT_VERSION = 1

_DTYPES = {
    "u8": np.uint8,
    "u16": np.uint16,
    "i8": np.int8,
    "i16": np.int16,
    "i32": np.int32,
    "f32": np.float32,
    "f64": np.float64,
}
_DTYPE_TAGS = {np.dtype(v): k for k, v in _DTYPES.items()}


class ModelFormatError(ValueError):
    """Manifest or blob cannot be trusted (version, checksum, truncation)."""


@dataclass
class ModelManifest:
    """Parsed manifest: layer descriptors plus tensor and qparams registries."""

    version: int
    kind: str
    endianness: str
    blob_file: str
    checksum: str
    layers: list
    tensors: dict
    qparams: dict
    config: dict = field(default_factory=dict)
    input_qparams: str | None = None

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "kind": self.kind,
            "endianness": self.endianness,
            "blob": {"file": self.blob_file, "sha256": self.checksum},
            "config": self.config,
            "input_qparams": self.input_qparams,
            "layers": self.layers,
            "tensors": self.tensors,
            "qparams": self.qparams,
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelManifest":
        doc = json.loads(text)
        if doc.get("version") != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported manifest version {doc.get('version')}")
        return cls(
            version=doc["version"],
            kind=doc["kind"],
            endianness=doc["endianness"],
            blob_file=doc["blob"]["file"],
            checksum=doc["blob"]["sha256"],
            layers=doc["layers"],
            tensors=doc["tensors"],
            qparams=doc["qparams"],
            config=doc.get("config") or {},
            input_qparams=doc.get("input_qparams"),
        )


def _qp_dict(qp: QuantParams) -> dict:
    return {
        "min": qp.min,
        "max": qp.max,
        "bitwidth": qp.bitwidth,
        "scale": qp.scale,
        "zero_point": qp.zero_point,
    }


def _qp_from(d: dict) -> QuantParams:
    return QuantParams(d["min"], d["max"], d["bitwidth"], d["scale"], d["zero_point"])


# manifest type tag -> (float layer class, integer layer class)
_LAYER_TYPES = {
    "embedding": (EmbeddingLayer, IntEmbedding),
    "lstm": (LstmLayer, IntLstm),
    "madnorm_lstm": (LstmLayer, IntLstm),
    "bilstm": (BiLstmLayer, IntBiLstm),
    "attention_decoder": (AttentionDecoderLayer, IntAttnDecoder),
    "residual_add": (ResidualAddLayer, IntResidual),
    "final_projection": (FinalProjectionLayer, IntProjection),
}

_QP_FIELDS = (
    "wx", "wh", "x", "h", "c", "mx", "mh", "pre_sig", "pre_j",
    "sig", "tanh_j", "p_fc", "p_ij", "tanh_c",
)
_ATTN_QP_FIELDS = (
    "wq", "wk", "v", "h_dec", "enc", "q", "k", "sum", "tanh", "e", "exp_in", "exp_out", "alpha", "s",
)
_PWL_INT_FIELDS = (
    "slope_mants", "slope_shifts", "intercept_fx", "knot_targets", "override_q", "override_val",
)


class _Writer:
    """Collects tensors into the blob and qparams into the registry."""

    def __init__(self):
        self.chunks = []
        self.offset = 0
        self.tensors = {}
        self.qparams = {}

    def tensor(self, name: str, arr: np.ndarray) -> str:
        arr = np.ascontiguousarray(arr)
        tag = _DTYPE_TAGS[arr.dtype]
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        self.tensors[name] = {
            "dtype": tag,
            "shape": list(arr.shape),
            "offset": self.offset,
            "length": len(raw),
        }
        self.chunks.append(raw)
        self.offset += len(raw)
        return name

    def qp(self, name: str, qp: QuantParams) -> str:
        # every layer records its own entry; the loader re-checks that
        # adjacent layers still agree (chain validation)
        self.qparams[name] = _qp_dict(qp)
        return name

    def pwl(self, prefix: str, t: PwlTable) -> dict:
        return {
            "fn": t.fn_name,
            "in_qp": self.qp(f"{prefix}.in", t.in_qp),
            "out_qp": self.qp(f"{prefix}.out", t.out_qp),
            "knots_q": [int(v) for v in t.knots_q],
            "knots_r": [float(v) for v in t.knots_r],
            "slopes": [float(v) for v in t.slopes],
            "intercepts": [float(v) for v in t.intercepts],
            "frac_bits": t.frac_bits,
            **{k: [int(v) for v in getattr(t, k)] for k in _PWL_INT_FIELDS},
        }

    def norm(self, prefix: str, p: MadNormQParams, qp_in_key: str) -> dict:
        return {
            "x": qp_in_key,
            **{k: self.qp(f"{prefix}.{k}", getattr(p, f"qp_{k}")) for k in ("mu", "xhat", "d", "y")},
            "hidden": p.hidden,
        }

    def cell(self, prefix: str, spec: QuantLstmSpec) -> dict:
        d = {
            "tensors": {
                "w_x": self.tensor(f"{prefix}.w_x", spec.w_x_q),
                "w_h": self.tensor(f"{prefix}.w_h", spec.w_h_q),
                "bias": self.tensor(f"{prefix}.bias", spec.bias_q),
            },
            "qparams": {k: self.qp(f"{prefix}.{k}", getattr(spec, f"qp_{k}")) for k in _QP_FIELDS},
            "pwl": {
                k: self.pwl(f"{prefix}.pwl_{k}", getattr(spec, f"pwl_{k}")) for k in ("sig", "tanh_j", "tanh_c")
            },
            "norm": None,
        }
        if spec.norm:
            q = d["qparams"]
            d["norm"] = {
                "nx": self.norm(f"{prefix}.nx", spec.norm_x, q["mx"]),
                "nh": self.norm(f"{prefix}.nh", spec.norm_h, q["mh"]),
                "nc": self.norm(f"{prefix}.nc", spec.norm_c, q["c"]),
            }
        return d

    def attn(self, prefix: str, spec: QuantAttentionSpec) -> dict:
        return {
            "tensors": {
                "w_q": self.tensor(f"{prefix}.w_q", spec.w_q_q),
                "w_k": self.tensor(f"{prefix}.w_k", spec.w_k_q),
                "v": self.tensor(f"{prefix}.v", spec.v_q),
            },
            "qparams": {k: self.qp(f"{prefix}.{k}", getattr(spec, f"qp_{k}")) for k in _ATTN_QP_FIELDS},
            "pwl": {
                "tanh": self.pwl(f"{prefix}.pwl_tanh", spec.pwl_tanh),
                "exp": self.pwl(f"{prefix}.pwl_exp", spec.pwl_exp),
            },
        }


class _Reader:
    """Resolves the manifest's tensor and qparams references."""

    def __init__(self, manifest: ModelManifest, blob: bytes):
        self.m = manifest
        self.blob = blob
        self._qp_cache = {}

    def tensor(self, name: str) -> np.ndarray:
        ref = self.m.tensors[name]
        end = ref["offset"] + ref["length"]
        if end > len(self.blob):
            raise ModelFormatError(f"tensor {name} extends past the end of the blob")
        dt = np.dtype(_DTYPES[ref["dtype"]]).newbyteorder("<")
        arr = np.frombuffer(self.blob, dtype=dt, count=ref["length"] // dt.itemsize, offset=ref["offset"])
        return arr.astype(_DTYPES[ref["dtype"]]).reshape(ref["shape"])

    def qp(self, name: str) -> QuantParams:
        # shared references resolve to one object so chained layers compare equal
        if name not in self._qp_cache:
            self._qp_cache[name] = _qp_from(self.m.qparams[name])
        return self._qp_cache[name]

    def pwl(self, d: dict) -> PwlTable:
        return PwlTable(
            knots_q=np.array(d["knots_q"], dtype=np.int64),
            knots_r=np.array(d["knots_r"], dtype=np.float64),
            slopes=np.array(d["slopes"], dtype=np.float64),
            intercepts=np.array(d["intercepts"], dtype=np.float64),
            in_qp=self.qp(d["in_qp"]),
            out_qp=self.qp(d["out_qp"]),
            fn_name=d["fn"],
            frac_bits=d["frac_bits"],
            **{k: np.array(d[k], dtype=np.int64) for k in _PWL_INT_FIELDS},
        )

    def norm(self, d: dict) -> MadNormQParams:
        qps = {f"qp_{k}": self.qp(d[k]) for k in ("x", "mu", "xhat", "d", "y")}
        return MadNormQParams(hidden=d["hidden"], **qps)

    def cell(self, d: dict) -> QuantLstmSpec:
        t, norm = d["tensors"], d.get("norm")
        return QuantLstmSpec(
            w_x_q=self.tensor(t["w_x"]),
            w_h_q=self.tensor(t["w_h"]),
            bias_q=self.tensor(t["bias"]),
            **{f"pwl_{k}": self.pwl(d["pwl"][k]) for k in ("sig", "tanh_j", "tanh_c")},
            **{f"norm_{k}": self.norm(norm[f"n{k}"]) if norm else None for k in ("x", "h", "c")},
            **{f"qp_{k}": self.qp(d["qparams"][k]) for k in _QP_FIELDS},
        )

    def attn(self, d: dict) -> QuantAttentionSpec:
        t = d["tensors"]
        return QuantAttentionSpec(
            w_q_q=self.tensor(t["w_q"]),
            w_k_q=self.tensor(t["w_k"]),
            v_q=self.tensor(t["v"]),
            pwl_tanh=self.pwl(d["pwl"]["tanh"]),
            pwl_exp=self.pwl(d["pwl"]["exp"]),
            **{f"qp_{k}": self.qp(d["qparams"][k]) for k in _ATTN_QP_FIELDS},
        )


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def save(model, path: str) -> str:
    """Write a model (float or integer) as ``path`` plus ``path + '.blob'``."""
    if not isinstance(model, (IntModel, FloatModel)):
        raise TypeError("save() expects a FloatModel or IntModel")
    w = _Writer()
    layers = [layer.encode(w, f"L{i}") for i, layer in enumerate(model.layers)]
    input_key, config, kind = None, {}, "float"
    if isinstance(model, IntModel):
        input_key = w.qp("input", model.input_qp) if model.input_qp is not None else None
        config, kind = model.config, "integer"
    blob = b"".join(w.chunks)
    blob_name = os.path.basename(path) + ".blob"
    manifest = ModelManifest(
        version=FORMAT_VERSION,
        kind=kind,
        endianness="little",
        blob_file=blob_name,
        checksum=hashlib.sha256(blob).hexdigest(),
        layers=layers,
        tensors=w.tensors,
        qparams=w.qparams,
        config=config,
        input_qparams=input_key,
    )
    with open(path + ".blob", "wb") as fh:
        fh.write(blob)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    return path


def load(path: str):
    """Load a model saved with :func:`save`; verifies version and checksum."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = ModelManifest.from_json(fh.read())
    blob_path = os.path.join(os.path.dirname(path) or ".", manifest.blob_file)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    if hashlib.sha256(blob).hexdigest() != manifest.checksum:
        raise ModelFormatError("blob checksum mismatch")
    if manifest.kind not in ("float", "integer"):
        raise ModelFormatError(f"unknown model kind {manifest.kind!r}")
    r = _Reader(manifest, blob)
    integer = manifest.kind == "integer"
    layers = []
    for d in manifest.layers:
        if d.get("type") not in _LAYER_TYPES:
            raise ModelFormatError(f"unknown layer type {d.get('type')!r}")
        layers.append(_LAYER_TYPES[d["type"]][integer].decode(r, d))
    if not integer:
        return FloatModel(layers)
    input_qp = r.qp(manifest.input_qparams) if manifest.input_qparams else None
    model = IntModel(layers, input_qp, config=manifest.config)
    validate_chain(model)
    return model
