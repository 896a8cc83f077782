"""The per-task set-up of Spark's Python workers (repro.spark_worker)."""
import ast
import importlib
import sys
import zipfile
import zipimport
from pathlib import Path

import repro
from repro.spark_worker import drop_zip_importers


def test_drop_zip_importers_keeps_imports_working(tmp_path, monkeypatch):
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zip_mod_a.py", "VALUE = 'a'\n")
        z.writestr("zip_mod_b.py", "VALUE = 'b'\n")
    monkeypatch.syspath_prepend(str(archive))
    try:
        assert importlib.import_module("zip_mod_a").VALUE == "a"
        assert isinstance(sys.path_importer_cache[str(archive)], zipimport.zipimporter)
        drop_zip_importers()
        assert not any(isinstance(f, zipimport.zipimporter)
                       for f in sys.path_importer_cache.values())
        importlib.invalidate_caches()
        b = importlib.import_module("zip_mod_b")
        assert b.VALUE == "b" and b.__file__.startswith(str(archive))
    finally:
        for name in ("zip_mod_a", "zip_mod_b"):
            sys.modules.pop(name, None)
        sys.path_importer_cache.pop(str(archive), None)


def _task_functions(tree: ast.AST) -> list[str]:
    """Names of the functions passed to ``mapInPandas`` in one module."""
    return [node.args[0].id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "mapInPandas" and node.args
            and isinstance(node.args[0], ast.Name)]


def test_every_spark_task_drops_zip_importers_first():
    """Each function Spark runs as a Python task calls
    ``drop_zip_importers()`` before anything else (after its docstring)."""
    seen, bad = [], []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        for name in _task_functions(tree):
            body = defs[name].body
            if ast.get_docstring(defs[name]) is not None:
                body = body[1:]
            first = ast.unparse(body[0]) if body else ""
            seen.append(f"{path.name}:{name}")
            if first != "drop_zip_importers()":
                bad.append(f"{path.name}:{name} starts with {first!r}")
    assert len(seen) >= 5, seen
    assert not bad, bad
