"""Every ``src/repro`` module reads every name it imports.

A stdlib-``ast`` scan, so it needs no linter.  An import bound at
module level must be read somewhere in the module; one bound inside a
function must be read inside that function.  A name the module lists
in ``__all__``, or one that another ``repro`` module imports from it,
is a re-export and counts as read.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).parent

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _bindings(node: ast.AST) -> Iterator[str]:
    """The names an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name


def _reads(scope: ast.AST) -> Set[str]:
    """Names loaded anywhere inside ``scope``, string annotations included."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _reads(ast.parse(annotation.value, mode="eval"))
    return names


def _all_names(module: str, path: Path, tree: ast.Module) -> Set[str]:
    """The module's ``__all__``: a package's is built at import time."""
    if path.name == "__init__.py":
        return set(importlib.import_module(module).__all__)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imports_by_scope(tree: ast.Module) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """(import node, innermost enclosing function or the module)."""
    def visit(node: ast.AST, scope: ast.AST):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, scope
            yield from visit(child, child if isinstance(child, _SCOPES) else scope)

    yield from visit(tree, tree)


def _modules() -> Dict[str, Tuple[Path, ast.Module]]:
    return {
        _module_name(path): (path, ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.rglob("*.py"))
    }


def unused_imports() -> List[str]:
    modules = _modules()
    reexported: Set[Tuple[str, str]] = set()
    for module, (path, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _absolute(module, path.name == "__init__.py", node)
                reexported |= {(source, alias.name) for alias in node.names}
    problems = []
    for module, (path, tree) in modules.items():
        exported = _all_names(module, path, tree)
        reads: Dict[int, Set[str]] = {}
        for node, scope in _imports_by_scope(tree):
            if id(scope) not in reads:
                reads[id(scope)] = _reads(scope)
            for bound in _bindings(node):
                if bound in reads[id(scope)]:
                    continue
                if scope is tree and (bound in exported or (module, bound) in reexported):
                    continue
                problems.append(f"{path.relative_to(SRC.parent)}:{node.lineno}: {bound}")
    return problems


def test_every_imported_name_is_read():
    assert unused_imports() == []

