"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every one of those submodules, and everything they import, the
moment any part of the package is imported. :func:`lazy_exports` gives
the package a module-level ``__getattr__`` and ``__dir__`` instead, so
a submodule is imported only when one of its names is first read::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".query": ("QueryEngine", "SubjectiveQuery"),
        ".result": ("OpinionTable",),
    })

``from package import QueryEngine``, ``from package import *`` (over
the package's ``__all__``), ``dir(package)`` and attribute access to a
not yet imported submodule (``import repro; repro.serve``) behave as
they would with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose ``exports``
    map each relative submodule to the names it re-exports."""
    owner = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            # Bind it, so the next read skips this hook.
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            qualified = f"{package}.{name}"
            try:
                return importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | owner.keys())

    return __getattr__, __dir__
