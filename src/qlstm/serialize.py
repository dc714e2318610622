"""Model serialization: a gzip-compressed JSON manifest plus a little-endian tensor blob.

The manifest (format version 3) is compact JSON with sorted keys, written
with ``gzip.compress(..., mtime=0)`` so that saving a model twice gives the
same bytes, and ``zcat model.json`` prints the document.  It carries the
layer graph, every per-stage quantization parameter as ``[min, max,
bitwidth]``, each PWL table's integer form (``knots_q``, the fixed-point
slopes, intercepts and override points, ``frac_bits``, ``fn``) and
references into the blob as (offset, length) pairs.  No layer class has a
codec of its own: a layer's descriptor is its dataclass fields, each placed
by its name and type (:func:`_slot`), and a nested dataclass field is placed
the same way, inlined (``spec``) or nested under its own name.
``_LAYER_TYPES`` maps the descriptors' type tags to the classes.

``load`` inflates at most :data:`MAX_MANIFEST_BYTES` of manifest, and
rejects a file that is not gzip (a manifest of an earlier version) as one
to convert again.  It derives each qparam's scale and zero point with
:func:`~qlstm.quant.compute_qparams` (IEEE division and rounding, no libm),
so ``save`` accepts only qparams that are that function's output.  Floats
round-trip exactly through JSON (shortest repr) and integer constants are
stored verbatim, so ``load(save(m))`` runs bit-identically to ``m``.  One
SHA-256, the ``seal``, covers the manifest body (the document without its
seal, dumped canonically, before compression) followed by the blob, so an
edited manifest value or blob byte does not load.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import cache
from typing import get_type_hints

import numpy as np

from .lstm import CELL_NORMS
from .madnorm import NORM_STAGES, MadNormQParams
from .pwl import ACTIVATIONS, PwlTable
from .quant import QuantParams, check_int, compute_qparams
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
)

FORMAT_VERSION = 3
MAX_MANIFEST_BYTES = 16 << 20  # inflated; the seed-1 benchmark manifests inflate to at most 17 KB

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


@contextmanager
def _malformed(where: str):
    """Re-raise what a malformed manifest makes decoding raise as ModelFormatError."""
    try:
        yield
    except ModelFormatError:
        raise
    except KeyError as e:
        raise ModelFormatError(f"{where}: unknown or missing key {e}") from e
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as e:
        raise ModelFormatError(f"{where}: {e}") from e


def _dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def seal(doc: dict, blob: bytes) -> str:
    """SHA-256 (hex) of the manifest body, ``doc`` without its ``seal`` as
    compact sorted JSON, followed by the blob."""
    h = hashlib.sha256(_dumps({k: v for k, v in doc.items() if k != "seal"}).encode("utf-8"))
    h.update(blob)
    return h.hexdigest()


def _decode_qp(entry: list) -> QuantParams:
    lo, hi, bitwidth = entry
    check_int("bitwidth", bitwidth)
    qp = compute_qparams(lo, hi, bitwidth)
    if (qp.min, qp.max) != (lo, hi):
        raise ValueError(f"range [{lo}, {hi}] does not include zero")
    return qp


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

_PWL_INT_FIELDS = (
    "slope_mants", "slope_shifts", "intercept_fx", "knot_targets", "override_q", "override_val",
)
_SECTIONS = {"qp_": "qparams", "pwl_": "pwl", "norm_": "norm"}


def _slot(name: str, hint) -> tuple:
    """Where a layer's or nested dataclass's field ``name`` of type ``hint``
    is stored: ``(section, key)``, section ``None`` for a field under its own
    name.  An array goes to ``tensors``, without a ``_q`` suffix."""
    for head, section in _SECTIONS.items():
        if name.startswith(head):
            return section, name[len(head):]
    if hint is np.ndarray:
        return "tensors", name.removesuffix("_q")
    return None, name


@cache
def _hints(cls) -> dict:
    """``cls``'s field types, resolved once per class."""
    return get_type_hints(cls)


def _tag(layer) -> str:
    tag = next(t for t, classes in _LAYER_TYPES.items() if type(layer) in classes)
    return "madnorm_lstm" if tag == "lstm" and getattr(layer, "spec", layer).norm else tag


class _Writer:
    """Collects tensors into the blob and qparams into the registry."""

    def __init__(self):
        self.chunks = []
        self.offset = 0
        self.tensors = {}
        self.qparams = {}
        self._derived = set()  # qparams already checked against compute_qparams

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
        if qp not in self._derived:
            if compute_qparams(qp.min, qp.max, qp.bitwidth) != qp:
                raise ValueError(f"qparams {name}: scale and zero point are not derived from the range")
            self._derived.add(qp)
        self.qparams[name] = [qp.min, qp.max, qp.bitwidth]
        return name

    def pwl(self, prefix: str, t: PwlTable) -> dict:
        return {
            "fn": t.fn_name,
            "in_qp": self.qp(f"{prefix}.in", t.in_qp),
            "out_qp": self.qp(f"{prefix}.out", t.out_qp),
            "knots_q": [int(v) for v in t.knots_q],
            "frac_bits": t.frac_bits,
            **{k: [int(v) for v in getattr(t, k)] for k in _PWL_INT_FIELDS},
        }

    def norm(self, prefix: str, p: MadNormQParams, qp_in_key: str) -> dict:
        return {
            "x": qp_in_key,
            **{k: self.qp(f"{prefix}.{k}", getattr(p, f"qp_{k}")) for k in NORM_STAGES},
            "hidden": p.hidden,
        }

    def fields(self, prefix: str, obj) -> dict:
        """The descriptor of a layer or nested dataclass, its entries named
        ``prefix.<key>`` (a field's ``name`` metadata overrides the key)."""
        d, hints = {}, _hints(type(obj))
        for f in fields(obj):
            v, (section, key) = getattr(obj, f.name), _slot(f.name, hints[f.name])
            name = f"{prefix}.{f.metadata.get('name', key)}"
            if section == "qparams":
                d.setdefault(section, {})[key] = self.qp(name, v)
            elif section == "pwl":
                d.setdefault(section, {})[key] = self.pwl(f"{prefix}.{f.name}", v)
            elif section == "tensors":
                d.setdefault(section, {})[key] = self.tensor(name, v)
            elif section == "norm":  # on its stage's qparams key, set above; null without MadNorm
                if v is None:
                    d["norm"] = None
                else:
                    x = d["qparams"][CELL_NORMS[key][0]]
                    d.setdefault("norm", {})[f"n{key}"] = self.norm(f"{prefix}.n{key}", v, x)
            elif f.name == "spec":
                d.update(self.fields(prefix, v))
            else:
                d[key] = self.fields(name, v) if is_dataclass(hints[f.name]) else v
        return d


class _Reader:
    """Resolves the manifest's tensor and qparams references."""

    def __init__(self, doc: dict, blob: bytes):
        self.tensors = doc["tensors"]
        self.qparams = doc["qparams"]
        self.blob = blob
        self._qp_cache = {}

    def tensor(self, name: str) -> np.ndarray:
        ref = self.tensors[name]
        offset, length, shape = ref["offset"], ref["length"], ref["shape"]
        if not all(type(v) is int and v >= 0 for v in (offset, length, *shape)):
            raise ModelFormatError(f"tensor {name}: offset, length and shape must be non-negative integers")
        dt = np.dtype(_DTYPES[ref["dtype"]]).newbyteorder("<")
        if length != math.prod(shape) * dt.itemsize:
            raise ModelFormatError(f"tensor {name}: length {length} does not fit shape {shape}")
        if offset + length > len(self.blob):
            raise ModelFormatError(f"tensor {name} extends past the end of the blob")
        arr = np.frombuffer(self.blob, dtype=dt, count=length // dt.itemsize, offset=offset)
        return arr.astype(_DTYPES[ref["dtype"]]).reshape(shape)

    def qp(self, name: str) -> QuantParams:
        # shared references resolve to one object so chained layers compare equal
        if name not in self._qp_cache:
            entry = self.qparams[name]
            with _malformed(f"qparams {name}"):
                self._qp_cache[name] = _decode_qp(entry)
        return self._qp_cache[name]

    def pwl(self, d: dict) -> PwlTable:
        if d["fn"] not in ACTIVATIONS:
            raise ModelFormatError(f"PWL table of unknown function {d['fn']!r}")
        return PwlTable(
            knots_q=np.array(d["knots_q"], dtype=np.int64),
            in_qp=self.qp(d["in_qp"]),
            out_qp=self.qp(d["out_qp"]),
            fn_name=d["fn"],
            frac_bits=d["frac_bits"],
            **{k: np.array(d[k], dtype=np.int64) for k in _PWL_INT_FIELDS},
        )

    def norm(self, d: dict) -> MadNormQParams:
        qps = {f"qp_{k}": self.qp(d[k]) for k in ("x", *NORM_STAGES)}
        return MadNormQParams(hidden=d["hidden"], **qps)

    def fields(self, cls, d: dict):
        """The layer or nested dataclass ``cls`` built from its descriptor ``d``."""
        kw, hints = {}, _hints(cls)
        for f in fields(cls):
            section, key = _slot(f.name, hints[f.name])
            if section == "qparams":
                v = self.qp(d[section][key])
            elif section == "pwl":
                v = self.pwl(d[section][key])
            elif section == "tensors":
                v = self.tensor(d[section][key])
            elif section == "norm":
                v = self.norm(d["norm"][f"n{key}"]) if d.get("norm") else None
            elif f.name == "spec":
                v = self.fields(hints[f.name], d)
            else:
                v = self.fields(hints[f.name], d[key]) if is_dataclass(hints[f.name]) else d[key]
            kw[f.name] = v
        return cls(**kw)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def save(model, path) -> str:
    """Write a model (float or integer) as ``path`` (a ``str`` or path-like)
    plus ``path + '.blob'`` in format version 3; returns the path as a
    ``str``."""
    if not isinstance(model, (IntModel, FloatModel)):
        raise TypeError("save() expects a FloatModel or IntModel")
    path = os.fspath(path)
    w = _Writer()
    layers = [{"type": _tag(layer), **w.fields(f"L{i}", layer)} for i, layer in enumerate(model.layers)]
    input_key, config, kind = None, {}, "float"
    if isinstance(model, IntModel):
        input_key = w.qp("input", model.input_qp) if model.input_qp is not None else None
        config, kind = model.config, "integer"
    blob = b"".join(w.chunks)
    doc = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "endianness": "little",
        "blob": {"file": os.path.basename(path) + ".blob"},
        "config": config,
        "input_qparams": input_key,
        "layers": layers,
        "tensors": w.tensors,
        "qparams": w.qparams,
    }
    doc["seal"] = seal(doc, blob)
    with open(path + ".blob", "wb") as fh:
        fh.write(blob)
    with open(path, "wb") as fh:
        fh.write(gzip.compress(_dumps(doc).encode("utf-8"), compresslevel=9, mtime=0))
    return path


def _inflate(raw: bytes) -> bytes:
    """The manifest document's bytes, inflated from gzip, at most
    :data:`MAX_MANIFEST_BYTES` of them."""
    if raw[:2] != b"\x1f\x8b":
        raise ModelFormatError(
            f"not a format-{FORMAT_VERSION} manifest (gzip-compressed JSON): convert the model again"
        )
    inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        body = inflater.decompress(raw, MAX_MANIFEST_BYTES)
    except zlib.error as e:
        raise ModelFormatError(f"manifest: {e}") from e
    if not inflater.eof:
        if len(body) == MAX_MANIFEST_BYTES:
            raise ModelFormatError(f"manifest inflates past the {MAX_MANIFEST_BYTES}-byte cap")
        raise ModelFormatError("manifest: the gzip stream is truncated")
    return body


def load(path):
    """Load a model saved with :func:`save` from ``path`` (a ``str`` or
    path-like); verifies the version (3) and the checksum.

    Any manifest the loader cannot decode into a valid model raises
    :class:`ModelFormatError`.
    """
    with open(path, "rb") as fh:
        body = _inflate(fh.read())
    with _malformed("manifest"):
        doc = json.loads(body)
        version = doc.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported manifest version {version!r}")
        name = doc["blob"]["file"]
    if not isinstance(name, str) or os.path.basename(name) != name or "\\" in name or name in ("", ".", ".."):
        raise ModelFormatError(f"blob file {name!r} must be a plain file name next to the manifest")
    blob_path = os.path.join(os.path.dirname(path) or ".", name)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    with _malformed("manifest"):
        if seal(doc, blob) != doc["seal"]:
            raise ModelFormatError("checksum mismatch: the manifest or the blob changed after save")
        kind = doc["kind"]
        if kind not in ("float", "integer"):
            raise ModelFormatError(f"unknown model kind {kind!r}")
        r = _Reader(doc, blob)
        integer = kind == "integer"
        layers = []
        for i, d in enumerate(doc["layers"]):
            # missing keys, and the layer constructors' checks (dtypes, shapes, accumulator bounds)
            with _malformed(f"layer {i}"):
                tag = d.get("type")
                if not isinstance(tag, str) or tag not in _LAYER_TYPES:
                    raise ModelFormatError(f"unknown layer type {tag!r}")
                layers.append(r.fields(_LAYER_TYPES[tag][integer], d))
    # the structure rules, and for an integer model the qparams chain and the widths
    with _malformed("model"):
        if not integer:
            return FloatModel(layers)
        input_key = doc.get("input_qparams")
        input_qp = r.qp(input_key) if input_key else None
        return IntModel(layers, input_qp, config=doc.get("config") or {})
