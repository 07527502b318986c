"""qmarginal: does a chosen set of reduced density matrices determine a
multi-party pure quantum state uniquely among all states, pure or mixed?

The package provides a constructive linear test for tripartite groupings,
an independent convex-feasibility oracle for arbitrary marginal sets,
exact parameter-counting bounds on the sufficient fraction of parties,
a classical counterexample generator, and a reproducible CLI.

The package namespace re-exports exactly the public names (``__all__``) of
its five library modules. ``import qmarginal`` loads none of them, nor
numpy: the first lookup of a public name (``__all__`` and ``dir()``
included) imports the five modules and binds all their names at once
(PEP 562). A random stream (``SeededRng``) and each of its substreams is
only a path of indices: its numpy generator is built on the first draw.
"""

from importlib import import_module

__version__ = "0.1.0"

_LIBRARY_MODULES = ("bounds", "classical", "feasibility", "tensor", "uniqueness")


def _load() -> None:
    """Import the library modules; bind their public names and ``__all__``."""
    names = []
    for module_name in _LIBRARY_MODULES:
        module = import_module(f".{module_name}", __name__)
        names += module.__all__
        globals().update({name: getattr(module, name) for name in module.__all__})
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _LIBRARY_MODULES:  # ``from . import bounds`` loads bounds alone
        return import_module(f".{name}", __name__)
    # Other dunders, such as introspection's ``__wrapped__``, never load numpy.
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("__")):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
