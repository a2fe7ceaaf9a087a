"""Lazy package namespaces (PEP 562).

Every ``repro`` package ``__init__`` maps its public names to the
submodules that define them instead of importing those submodules up
front.  A name's submodule is imported on first attribute access (and
by ``from package import name``), so importing one submodule — say
``repro.verify.runner`` — loads only what that submodule imports, not
every sibling the package re-exports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of a lazy package.

    ``exports`` maps each submodule, named relative to ``package``
    (``".compiler"``, ``".core.schedule"``), to the names it defines.
    A resolved name is cached in the package's globals, so only its
    first access goes through ``__getattr__``.  Any other name that is
    a submodule of the package imports it, as an explicit import
    would; anything else raises the usual :class:`AttributeError`.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(
                importlib.import_module(origin[name], package), name
            )
        else:
            value = _import_submodule(package, name)
        sys.modules[package].__dict__[name] = value
        return value

    def __dir__() -> list[str]:
        namespace = sys.modules[package].__dict__
        return sorted({*namespace, *namespace.get("__all__", ())})

    return __getattr__, __dir__, sorted(origin)


def _import_submodule(package: str, name: str) -> object:
    """Import ``package.name``; :class:`AttributeError` if there is no
    such submodule (dunder names are never submodules)."""
    submodule = f"{package}.{name}"
    if not name.startswith("__"):
        try:
            return importlib.import_module(submodule)
        except ModuleNotFoundError as exc:
            if exc.name != submodule:
                raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")
