"""Model serialization: a gzip-compressed JSON manifest plus a little-endian tensor blob.

The manifest (format version 6) is compact JSON with sorted keys, written
with ``gzip.compress(..., mtime=0)`` so that saving a model twice gives the
same bytes, and ``zcat model.json`` prints the document; the blob is the
manifest's path plus ``.blob``.  The document holds what ``load`` builds the
model from: ``version``, ``kind``, ``input_qp``, the ``seal`` and the layer
stack, each layer as its type tag and its dataclass fields.  No layer class
has a codec of its own: one writer and one reader store every field under
its own name, in the form that its type decides:

* a ``QuantParams`` as ``[min, max, bitwidth]``;
* a ``PwlTable`` as its integer form (``fn_name``, ``in_qp``, ``out_qp``,
  ``knots_q``, the fixed-point slopes and intercepts, the override points);
* an array as ``{dtype, shape, offset}``, its bytes in the blob;
* a nested dataclass (``spec``, ``fwd``, ``norm_x``, ...) as an object of
  its own fields, ``None`` as ``null`` and an ``int`` or ``bool`` as that JSON type.

``load`` reads the file in chunks, inflates at most
:data:`MAX_MANIFEST_BYTES` of manifest, and rejects a file that is not gzip,
or of another version, as one to convert again.  It derives each qparam's
scale and zero point with :func:`~qlstm.quant.compute_qparams` (IEEE
division and rounding, no libm), so ``save`` accepts only qparams that are
that function's output.  Floats round-trip exactly through JSON (shortest
repr) and integer constants are stored verbatim, so ``load(save(m))`` runs
bit-identically to ``m``.  One SHA-256, the ``seal``, covers the manifest
body (the document without its seal, dumped canonically, before
compression) followed by the blob, so an edited manifest value or blob byte
does not load.
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
from typing import get_args, get_type_hints

import numpy as np

from .pwl import PwlTable
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

FORMAT_VERSION = 6
MAX_MANIFEST_BYTES = 16 << 20  # inflated; the seed-1 benchmark manifests inflate to at most 14 KB
_READ_CHUNK = 1 << 16  # bytes of the manifest file fed to the inflater at a time

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
    "bilstm": (BiLstmLayer, IntBiLstm),
    "attention_decoder": (AttentionDecoderLayer, IntAttnDecoder),
    "residual_add": (ResidualAddLayer, IntResidual),
    "final_projection": (FinalProjectionLayer, IntProjection),
}
_TAGS = {cls: tag for tag, classes in _LAYER_TYPES.items() for cls in classes}

# a PwlTable's integer arrays, stored inline after its fn_name, in_qp and out_qp
_PWL_ARRAYS = ("knots_q", "slope_mants", "slope_shifts", "intercept_fx", "override_q", "override_val")


@cache
def _hints(cls) -> dict:
    """``cls``'s field types, resolved once per class."""
    return get_type_hints(cls)


class _Writer:
    """Stores values as the manifest holds them, and arrays in the blob."""

    def __init__(self):
        self.chunks = []
        self.offset = 0
        self._derived = set()  # qparams already checked against compute_qparams

    def tensor(self, arr: np.ndarray) -> dict:
        arr = np.ascontiguousarray(arr)
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        ref = {"dtype": _DTYPE_TAGS[arr.dtype], "shape": list(arr.shape), "offset": self.offset}
        self.chunks.append(raw)
        self.offset += len(raw)
        return ref

    def value(self, v, name: str):
        """``v`` as the manifest stores it, by its type; ``name`` is its path
        in the model, for errors."""
        if isinstance(v, QuantParams):
            if v not in self._derived:
                if compute_qparams(v.min, v.max, v.bitwidth) != v:
                    raise ValueError(f"qparams {name}: scale and zero point are not derived from the range")
                self._derived.add(v)
            return [v.min, v.max, v.bitwidth]
        if isinstance(v, PwlTable):  # the integer form only; grid_out is derived from it at load
            return {
                "fn_name": v.fn_name,
                "in_qp": self.value(v.in_qp, f"{name}.in_qp"),
                "out_qp": self.value(v.out_qp, f"{name}.out_qp"),
                **{k: [int(x) for x in getattr(v, k)] for k in _PWL_ARRAYS},
            }
        if isinstance(v, np.ndarray):
            return self.tensor(v)
        if is_dataclass(v):
            return {f.name: self.value(getattr(v, f.name), f"{name}.{f.name}") for f in fields(v)}
        return v


class _Reader:
    """Builds values of given types from the manifest, and arrays from the blob."""

    def __init__(self, blob: bytes):
        self.blob = blob

    def tensor(self, ref: dict, name: str) -> np.ndarray:
        offset, shape = ref["offset"], ref["shape"]
        if not all(type(v) is int and v >= 0 for v in (offset, *shape)):
            raise ModelFormatError(f"tensor {name}: offset and shape must be non-negative integers")
        dt = np.dtype(_DTYPES[ref["dtype"]]).newbyteorder("<")
        if offset + math.prod(shape) * dt.itemsize > len(self.blob):
            raise ModelFormatError(f"tensor {name} extends past the end of the blob")
        arr = np.frombuffer(self.blob, dtype=dt, count=math.prod(shape), offset=offset)
        return arr.astype(_DTYPES[ref["dtype"]]).reshape(shape)

    def pwl(self, d: dict) -> PwlTable:
        return PwlTable(
            in_qp=_decode_qp(d["in_qp"]),
            out_qp=_decode_qp(d["out_qp"]),
            fn_name=d["fn_name"],
            **{k: np.array([self.value(int, x, k) for x in d[k]], dtype=np.int64) for k in _PWL_ARRAYS},
        )

    def value(self, hint, v, name: str):
        """The value of type ``hint`` that the manifest stores as ``v``."""
        if type(None) in get_args(hint):  # X | None
            if v is None:
                return None
            (hint,) = (a for a in get_args(hint) if a is not type(None))
        if hint is QuantParams:
            return _decode_qp(v)
        if hint is PwlTable:
            return self.pwl(v)
        if hint is np.ndarray:
            return self.tensor(v, name)
        if is_dataclass(hint):
            return self.fields(hint, v)
        if type(v) is not hint:  # JSON 1.0 is no int, and 0 no bool
            raise ModelFormatError(f"{name} must be {({int: 'an integer', bool: 'a boolean'})[hint]}, not {v!r}")
        return v

    def fields(self, cls, d: dict):
        """The dataclass ``cls`` built from its fields, stored under their names in ``d``."""
        hints = _hints(cls)
        return cls(**{f.name: self.value(hints[f.name], d[f.name], f.name) for f in fields(cls)})


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def save(model, path) -> str:
    """Write a model (float or integer) as ``path`` (a ``str`` or path-like)
    plus ``path + '.blob'`` in format version 6; returns the path as a
    ``str``."""
    if not isinstance(model, (IntModel, FloatModel)):
        raise TypeError("save() expects a FloatModel or IntModel")
    path = os.fspath(path)
    w = _Writer()
    integer = isinstance(model, IntModel)
    doc = {
        "version": FORMAT_VERSION,
        "kind": "integer" if integer else "float",
        "layers": [{"type": _TAGS[type(layer)], **w.value(layer, f"L{i}")} for i, layer in enumerate(model.layers)],
        "input_qp": w.value(model.input_qp, "input_qp") if integer else None,
    }
    blob = b"".join(w.chunks)
    doc["seal"] = seal(doc, blob)
    with open(path + ".blob", "wb") as fh:
        fh.write(blob)
    with open(path, "wb") as fh:
        fh.write(gzip.compress(_dumps(doc).encode("utf-8"), compresslevel=9, mtime=0))
    return path


def _inflate(fh) -> bytes:
    """The manifest document's bytes, inflated from the gzip file ``fh``, at
    most :data:`MAX_MANIFEST_BYTES` of them.  The file is read in chunks, up
    to the end of the stream or the cap, after its first two bytes show that
    it is gzip."""
    data = fh.read(2)
    if data != b"\x1f\x8b":
        raise ModelFormatError(
            f"not a format-{FORMAT_VERSION} manifest (gzip-compressed JSON): convert the model again"
        )
    inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
    parts, size = [], 0
    try:
        while data and not inflater.eof:
            parts.append(inflater.decompress(data, MAX_MANIFEST_BYTES + 1 - size))
            size += len(parts[-1])
            if size > MAX_MANIFEST_BYTES:
                raise ModelFormatError(f"manifest inflates past the {MAX_MANIFEST_BYTES}-byte cap")
            data = inflater.unconsumed_tail or fh.read(_READ_CHUNK)
    except zlib.error as e:
        raise ModelFormatError(f"manifest: {e}") from e
    if not inflater.eof:
        raise ModelFormatError("manifest: the gzip stream is truncated")
    return b"".join(parts)


def load(path):
    """Load a model saved with :func:`save` as ``path`` (a ``str`` or
    path-like); verifies the version (6) and the checksum.

    Any manifest the loader cannot decode into a valid model raises
    :class:`ModelFormatError`.
    """
    with open(path, "rb") as fh:
        body = _inflate(fh)
    with _malformed("manifest"):
        doc = json.loads(body)
        version = doc.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported manifest version {version!r}: convert the model again")
        with open(f"{os.fspath(path)}.blob", "rb") as fh:
            blob = fh.read()
        if seal(doc, blob) != doc["seal"]:
            raise ModelFormatError("checksum mismatch: the manifest or the blob changed after save")
        kind = doc["kind"]
        if kind not in ("float", "integer"):
            raise ModelFormatError(f"unknown model kind {kind!r}")
        r = _Reader(blob)
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
        input_qp = r.value(QuantParams | None, doc["input_qp"], "input_qp")
        return IntModel(layers, input_qp)
