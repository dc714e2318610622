"""Import hygiene: a module of the package reads every name it imports.

The one exception is ``eval_pwl_int`` in ``lstm`` and ``attention``:
``perfbench/spans.py`` re-binds it there to time ``pwl.eval``, and the
kernels gather from the PWL tables instead of calling it, so each module
keeps the import only so that the binding exists.
"""
import ast
from pathlib import Path

from perfbench.spans import BINDINGS

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


def test_unread_imports_finds_exactly_the_unread_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .quant import a, b as c, d\n\n\ndef f(x: d) -> None:\n    return np.sum(c)\n"
    )
    assert unread_imports(probe) == {"os", "a"}
