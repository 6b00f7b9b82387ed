"""Phi and its inverse: scipy's ufuncs, loaded without ``scipy.special``.

``import scipy.special`` also imports scipy's array-API layer, about 0.2 s
that aesf never uses. Unless ``scipy.special`` is loaded already, a bare
module with scipy's ``special`` directory as its ``__path__`` stands in for
the package while the extension ``scipy.special._ufuncs`` loads, and is then
removed. A later ``import scipy.special`` runs the real ``__init__``, which
reuses the loaded ``_ufuncs`` (the same objects on every route); a one-shot
finder binds the window's submodules onto that package. The window holds the
import lock of ``scipy.special`` and marks the stand-in as initializing, so
another thread's import waits for it to close; a thread handed the stand-in
reads the real package's attributes through it once it is out of
``sys.modules``. On an ``ImportError`` or ``AttributeError`` (another scipy
layout or other import internals), the names come from the plain import.
See notes/decisions.md.
"""

import importlib
import os
import sys
import types
from importlib import machinery

_PACKAGE = "scipy.special"


class _BindLoaded:
    """Meta-path finder that binds ``loaded`` onto the real package before
    its ``__init__`` runs, then leaves ``sys.meta_path``."""

    def __init__(self, loaded):
        self.loaded = loaded

    def find_spec(self, name, path=None, target=None):
        spec = machinery.PathFinder.find_spec(name, path) if name == _PACKAGE else None
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def bind_then_exec(module):
            sys.meta_path.remove(self)
            vars(module).update(self.loaded)
            exec_module(module)

        spec.loader.exec_module = bind_then_exec
        return spec


def _load_ufuncs():
    from importlib import _bootstrap

    import scipy

    with _bootstrap._ModuleLockManager(_PACKAGE):
        if _PACKAGE in sys.modules:  # complete: its import held this lock
            return sys.modules[_PACKAGE]
        stub = types.ModuleType(_PACKAGE)
        stub.__path__ = [os.path.join(entry, "special") for entry in scipy.__path__]
        stub.__spec__ = machinery.ModuleSpec(_PACKAGE, None, is_package=True)
        stub.__spec__._initializing = True

        def __getattr__(name):
            if sys.modules.get(_PACKAGE) is stub:
                raise AttributeError(name)
            return getattr(importlib.import_module(_PACKAGE), name)

        stub.__getattr__ = __getattr__
        sys.modules[_PACKAGE] = stub
        try:
            return importlib.import_module(_PACKAGE + "._ufuncs")
        finally:
            del sys.modules[_PACKAGE]
            loaded = {k: v for k, v in vars(stub).items() if isinstance(v, types.ModuleType)}
            sys.meta_path.insert(0, _BindLoaded(loaded))


try:
    _source = _load_ufuncs()
    ndtr, ndtri = _source.ndtr, _source.ndtri
except (ImportError, AttributeError):
    from scipy.special import ndtr, ndtri

__all__ = ["ndtr", "ndtri"]
