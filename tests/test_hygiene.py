"""Import hygiene: a module of the package reads every name it imports.

The one exception is ``eval_pwl_int`` in ``lstm`` and ``attention``:
``perfbench/spans.py`` re-binds it there to time ``pwl.eval``, and the
kernels gather from the PWL tables instead of calling it, so each module
keeps the import only so that the binding exists.

Layers pass raw arrays, so ``QuantTensor`` is built only as ``runtime.run``'s
return value.

The integer specs are data: the lanes and attention constants that the
kernels run on are built in one place, ``runtime.engine``, and nothing in
the package caches a structure on a spec.

Each cell's mixed-precision layout is declared once, in the module whose
kernels run it (``lstm.CELL_STAGES``, ``attention.ATTN_BITS`` and
``ATTN_STAGES``, ``madnorm.NORM_STAGES``), so ``runtime`` and ``serialize``
hold no literal list of its stage names.

A layer of LSTM cells reads its ports from its cells, in one base class,
and a backward direction is the forward step over reversed frames, so the
sequence functions take no time order.

A layer's manifest entry is its fields, each stored under its own name in
the form that its type decides, by one writer and one reader in
``serialize``.  So no layer, float or integer, and no spec has a codec of
its own, no dataclass field carries metadata for the serializer, and
``serialize`` reads nothing of a cell's layout from ``lstm`` or ``madnorm``.

An attention decoder is one spec: its attention reads the query's and the
keys' grids from its cell, so it stores no grid of its own for them, and
its layer needs no chain check of its own.

A PWL table is its stored form: every one of its init fields is stored and
required, and the rest is derived.  Conversion builds every table on the
default candidate count, so only ``build_pwl`` takes one.

Every binding that ``perfbench/spans.py`` re-binds names an attribute of
the package, so dropping or renaming one fails here, not as a ``KeyError``
inside a traced benchmark run.
"""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path
from typing import get_type_hints

import numpy as np

from conftest import calibrated_int_model
from perfbench.spans import BINDINGS, COUNTED, _resolve
from qlstm import attention, lstm, runtime, serialize
from qlstm.attention import ATTN_BITS, ATTN_STAGES
from qlstm.lstm import CELL_STAGES
from qlstm.madnorm import NORM_STAGES, MadNormQParams
from qlstm.pwl import PwlTable
from qlstm.quant import QuantParams

SRC = Path(__file__).resolve().parent.parent / "src" / "qlstm"


def unread_imports(path: Path) -> set:
    """Names that ``path``'s import statements bind and no expression in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


UNREAD_BINDINGS = {("qlstm.lstm", "eval_pwl_int"), ("qlstm.attention", "eval_pwl_int")}


def test_unread_imports_are_only_the_pwl_eval_bindings():
    unread = {
        (f"qlstm.{path.stem}", name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unread_imports(path)
    }
    assert UNREAD_BINDINGS <= set(BINDINGS)
    assert unread <= UNREAD_BINDINGS, sorted(unread - UNREAD_BINDINGS)


def unbound(bindings) -> list:
    """The ``(module or class, attribute)`` entries whose owner does not
    itself hold the attribute, which ``spans.instrument`` reads as
    ``vars(owner)[attr]``."""
    return [(path, attr) for path, attr in bindings if attr not in vars(_resolve(path))]


def test_every_span_binding_names_an_attribute_of_the_package():
    assert unbound([*BINDINGS, *COUNTED]) == []


def test_unbound_finds_a_missing_or_inherited_attribute():
    probe = [
        ("qlstm.runtime", "run"),
        ("qlstm.runtime", "no_such"),
        ("qlstm.lstm.QuantLstmSpec", "from_float"),
        ("qlstm.runtime.IntLstm", "links"),  # inherited from _IntLayer
    ]
    assert unbound(probe) == [("qlstm.runtime", "no_such"), ("qlstm.runtime.IntLstm", "links")]


def test_unread_imports_finds_exactly_the_unread_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .quant import a, b as c, d\n\n\ndef f(x: d) -> None:\n    return np.sum(c)\n"
    )
    assert unread_imports(probe) == {"os", "a"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "name", None)  # aliases and definitions


def uses(path: Path, name: str) -> tuple:
    """Whether ``path`` names ``name`` anywhere, and the innermost function
    around each call of it (``None`` at module level)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _name(child.func) == name:
                callers.append(fn)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, None)
    return any(_name(node) == name for node in ast.walk(tree)), callers


def test_quant_tensor_is_built_only_by_run():
    found = {path.stem: uses(path, "QuantTensor") for path in sorted(SRC.glob("*.py"))}
    assert {stem for stem, (named, _) in found.items() if named} == {"__init__", "quant", "runtime"}
    assert {stem: callers for stem, (_, callers) in found.items() if callers} == {"runtime": ["run"]}


def test_engine_structures_are_built_only_by_the_engine():
    for name in ("LstmLanes", "AttentionConsts"):
        found = {path.stem: uses(path, name)[1] for path in sorted(SRC.glob("*.py"))}
        assert {stem: callers for stem, callers in found.items() if callers} == {"runtime": ["engine"]}, name
    assert not any(uses(path, "cached_property")[0] for path in sorted(SRC.glob("*.py")))
    assert not any(hasattr(cls, "lanes") for cls in SPECS)
    _, im = calibrated_int_model(np.random.default_rng(0), ["bilstm", "lstm_norm", "attn"])
    built = [s for layer in im.layers[1:4] for s in (*layer.cells, layer.decoder)]
    assert sum(isinstance(s, SPECS) for s in built) == 5 and not any(hasattr(s, "lanes") for s in built)


def test_uses_finds_every_call_and_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .quant import T\nT(0)\n\n\ndef f():\n    def g():\n        return quant.T(1)\n\n    return T(g())\n"
    )
    assert uses(probe, "T") == (True, [None, "g", "f"])
    assert uses(probe, "U") == (False, [])


STAGE_NAMES = {*CELL_STAGES, *ATTN_BITS, *ATTN_STAGES, *NORM_STAGES}


def stage_lists(path: Path) -> list:
    """Lines of ``path``'s literal lists, tuples and sets that hold two or more stage names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set))
        and sum(isinstance(e, ast.Constant) and e.value in STAGE_NAMES for e in node.elts) >= 2
    ]


def test_runtime_and_serialize_spell_out_no_stage_layout():
    assert {name: stage_lists(SRC / name) for name in ("runtime.py", "serialize.py")} == {
        "runtime.py": [],
        "serialize.py": [],
    }


def test_stage_lists_finds_literal_lists_of_two_stage_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        'A = ("mx", "mh")\nB = ["x", "w_x", 8]\nC = {"sum", *D}\nE = {"q": 1, "k": 2}\n'
        'F = {"tanh", "e"}\nfor k in ["nx", ("c", "p_fc")]:\n    pass\n'
    )
    assert sorted(stage_lists(probe)) == [1, 5, 6]


def test_cell_layers_read_their_ports_from_their_cells():
    ports = {"qp_in", "qp_out", "input_size", "output_size"}
    for cls in (runtime.IntLstm, runtime.IntBiLstm, runtime.IntAttnDecoder):
        assert not ports & set(vars(cls)), cls.__name__
    for fn in (lstm.lstm_sequence_real, lstm.lstm_sequence_exact):
        assert "direction" not in inspect.signature(fn).parameters, fn.__name__


INT_LAYERS = (
    runtime.IntEmbedding, runtime.IntLstm, runtime.IntBiLstm, runtime.IntAttnDecoder, runtime.IntResidual,
    runtime.IntProjection,
)
FLOAT_LAYERS = (
    runtime.EmbeddingLayer, runtime.LstmLayer, runtime.BiLstmLayer, runtime.AttentionDecoderLayer,
    runtime.ResidualAddLayer, runtime.FinalProjectionLayer,
)
SPECS = (lstm.QuantLstmSpec, attention.QuantAttnDecoderSpec)
# the integer fields' naming rule, which the stage tables read: prefix or suffix -> the field's type
NAMED = {"qp_": QuantParams, "pwl_": PwlTable, "norm_": MadNormQParams | None, "_q": np.ndarray}


def test_integer_layers_are_stored_by_their_field_names():
    for cls in (*INT_LAYERS, *FLOAT_LAYERS):
        assert not hasattr(cls, "encode") and not hasattr(cls, "decode"), cls.__name__
    for cls in (serialize._Writer, serialize._Reader):
        assert not hasattr(cls, "cell") and not hasattr(cls, "attn"), cls.__name__
    for cls in (*INT_LAYERS, *SPECS):
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            where = f"{cls.__name__}.{f.name}"
            assert f.init, where
            # prefixes first, so qp_q holds qparams
            rule = next((t for k, t in NAMED.items() if f.name.startswith(k) or f.name.endswith(k)), None)
            assert hints[f.name] == rule if rule else hints[f.name] in (*SPECS, int), where


def test_bilstm_layer_is_its_cells_and_a_model_its_layers():
    assert [f.name for f in dataclasses.fields(runtime.IntBiLstm)] == ["fwd", "bwd"]
    assert [f.name for f in dataclasses.fields(runtime.IntModel)] == ["layers", "input_qp"]
    assert not hasattr(lstm, "BiLstmSpec")


def test_attention_decoder_is_one_spec():
    assert not hasattr(attention, "QuantAttentionSpec")
    names = {f.name for f in dataclasses.fields(attention.QuantAttnDecoderSpec)}
    assert "cell" in names and not names & {"qp_h_dec", "qp_enc", "attn"}
    assert "links" not in vars(runtime.IntAttnDecoder)


def imported_modules(path: Path) -> set:
    """The modules that ``path`` imports, or imports names from, as written (``.lstm`` is ``lstm``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_serialize_reads_no_cell_layout():
    modules = imported_modules(SRC / "serialize.py")
    assert "runtime" in modules
    assert not {m for m in modules if m.split(".")[-1] in ("lstm", "madnorm")}, sorted(modules)


def test_imported_modules_finds_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom . import lstm\nfrom .madnorm import X\nfrom qlstm.pwl import Y\n")
    assert imported_modules(probe) == {"os.path", "lstm", "madnorm", "qlstm.pwl"}


def test_no_dataclass_field_carries_metadata():
    modules = [importlib.import_module(f"qlstm.{path.stem}") for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    classes = {
        cls for m in modules for cls in vars(m).values() if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    }
    assert runtime.IntProjection in classes and len(classes) > 20
    assert [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls) if f.metadata] == []


def test_pwl_table_init_fields_are_its_stored_form():
    init = [f for f in dataclasses.fields(PwlTable) if f.init]
    assert {f.name for f in init} == {"fn_name", "in_qp", "out_qp", *serialize._PWL_ARRAYS}
    missing = dataclasses.MISSING
    assert [f.name for f in init if f.default is not missing or f.default_factory is not missing] == []


def test_conversion_takes_no_candidate_count():
    chain = (
        runtime.convert,
        lstm.QuantLstmSpec.from_float,
        attention.QuantAttnDecoderSpec.from_float,
    )
    assert [fn.__qualname__ for fn in chain if "candidates" in inspect.signature(fn).parameters] == []
