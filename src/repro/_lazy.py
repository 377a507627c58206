"""Lazy package exports (PEP 562).

A package ``__init__`` lists which submodule defines each public name,
and :func:`lazy_exports` gives it the module ``__getattr__`` that
imports that submodule the first time the name is read.  The value is
then bound in the package namespace, so later reads are plain lookups.
``import repro.cli`` therefore loads only the modules a command uses:
the compiler path never imports numpy, the service or the lint engine.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, namespace: dict, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of *package*.

    *exports* maps a relative submodule (``".batch"``) to the names it
    defines that the package re-exports; *namespace* is the package's
    ``globals()``.  ``__all__`` lists the names in table order.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
