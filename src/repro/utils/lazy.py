"""Lazy package namespaces: re-exported names resolve on first access.

A package ``__init__`` that re-exports its public API with eager
``from ... import`` statements makes every importer pay for every
submodule, even one that needs a single function.  :func:`lazy_namespace`
builds the module-level ``__getattr__``/``__dir__`` pair of PEP 562
instead: the package's ``__init__`` declares which module defines each
name, and the first attribute access imports that module and caches the
value on the package, so later accesses are plain attribute lookups::

    __all__, __getattr__, __dir__ = lazy_namespace(
        __name__,
        {"repro.sim.broadcast": ("ENGINE_BACKENDS", "run_broadcast")},
    )

``from package import name``, ``from package import *`` and
``package.name`` all go through ``__getattr__``, so they keep working.  A
name that is not declared falls back to the package's submodule of that
name (``import repro; repro.sim``), and only a missing submodule raises
:class:`AttributeError`.

A package whose import has side effects (a registry filled by importing a
sibling module, like :mod:`repro.scenarios`) keeps its eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_namespace"]


def lazy_namespace(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it; ``__all__`` lists them in declaration order.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    public = list(origin)

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):
            # Tools probe dunders (``__wrapped__``, ``__test__``...), and a
            # dunder submodule is never an attribute: importing
            # ``repro.experiments.__main__`` would run the CLI.
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return public, __getattr__, __dir__
