"""Surface guard: every public function and method in ``src/leakscope`` has
a caller in the package or the benchmark, or a reason on the allowlist.

A name counts as referenced when it appears outside its own ``def`` as a
name or an attribute anywhere in ``src/leakscope``, or as a name, an
attribute or a string (the benchmark's hooks name functions by string) in
``perfbench/*.py``. A method or property is reached through an object, so
for a class member only an attribute (``x.name``) or a benchmark string
counts, never a bare name: a local variable ``cells`` does not reference
``CycleMatrix.cells``. Imports and ``__all__`` entries in ``__init__.py``
are not references. Tests do not count: a helper only tests call belongs
beside them in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leakscope"

ALLOWED = {
    "aes128_encrypt": "library AES the acceptance criteria check the simulator against",
    "hamming_weight": "Hamming primitive named by the acceptance criteria",
    "hamming_distance": "Hamming primitive named by the acceptance criteria",
    "pearson": "two-pass Pearson named by the acceptance criteria",
    "obfuscate_address": "address obfuscation named by the acceptance criteria",
    "deobfuscate_address": "inverse of obfuscate_address, checked with it",
    "remap": "re-keying of a stored word, named by the acceptance criteria",
    "obfuscate64": "scalar 64-bit obfuscation, the reference the vector path is tested against",
    "deobfuscate64": "scalar inverse of obfuscate64, the reference of the vector path",
    "Machine.functional_registers": "functional register view named by the acceptance "
                                    "criteria",
    "CacheGeometry.address_geometry": "address split of a cache config, for callers of "
                                      "obfuscate_address",
}


def _definitions():
    """(qualified name, bare name, file, first line, last line) of every
    public top-level function and public method of a top-level class."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                continue
            for qual, fn in members:
                if not fn.name.startswith("_"):
                    out.append((qual, fn.name, path, fn.lineno, fn.end_lineno))
    return out


def _references():
    """(identifier, whether a bare name, file, line) of every reference the
    module docstring counts."""
    out = []
    files = [(p, False) for p in sorted(SRC.rglob("*.py"))]
    files += [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, strings in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.append((node.id, True, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, False, path, node.lineno))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.append((node.value, False, path, node.lineno))
    return out


def test_every_public_function_has_a_caller_or_a_reason():
    refs = _references()
    unused = {qual for qual, name, path, first, last in _definitions()
              if not any(r == name and not (bare and "." in qual)
                         and (p != path or not first <= line <= last)
                         for r, bare, p, line in refs)}
    assert sorted(unused - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unused) == []  # a stale entry: the name has a caller or is gone
