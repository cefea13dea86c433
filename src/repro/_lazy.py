"""Lazy package exports (PEP 562).

A package ``__init__`` declares which submodule defines each public
name.  The submodule is imported the first time the name is read from
the package, and the value is then stored on the package, so later
reads are plain attribute lookups.  ``import repro.cli`` thus loads no
algorithm module and no numpy until a command needs one.

A name that is also the name of its submodule (``repro.associations``'
``apriori`` function lives in ``repro.associations.apriori``) must stay
bound eagerly in the ``__init__``: importing a submodule for the first
time rebinds the package attribute of the same name to the module,
and ``__getattr__`` is only consulted for names that are missing.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines; ``submodules`` lists submodules that are
    public names themselves.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    modules = tuple(submodules)

    def __getattr__(name: str) -> object:
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner) | set(modules))

    return [*owner, *modules], __getattr__, __dir__
