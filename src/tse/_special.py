"""The special functions of ``tse``, without ``scipy.special``'s package import.

A cold ``import scipy.special`` takes about 0.3 s, nearly all of it in its
array-API support, which loads ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``.  Every ufunc ``tse`` uses lives in the extension module
``scipy.special._ufuncs``, which imports in about 10 ms.  If
``scipy.special`` is loaded, the ufuncs come from it.  Otherwise a bare
package whose ``__path__`` is scipy's own ``special`` directory stands in
for ``scipy.special`` while ``_ufuncs`` is imported under it, and leaves
``sys.modules`` in a ``finally``.  A later ``import scipy.special`` runs
scipy's own ``__init__``, which finds the same ``_ufuncs`` module, so its
ufuncs are these objects.  On any import error the public
``scipy.special`` is imported instead, and no stub is left behind.

Two risks.  The module relies on scipy's private layout (checked against
scipy 1.17.1); a layout it does not find takes the public import, at its
cost.  And another thread that imports ``scipy.special`` in the ~15 ms
the stub is registered gets the stub, which has none of the public names.
The extension modules that ``_ufuncs`` loads itself (``_ufuncs_cxx`` and
others) stay in ``sys.modules`` but are bound as attributes of the stub,
not of the package a later import makes; only scipy's tests read them so.
"""

import importlib
import os
import sys
import types
from operator import attrgetter

import scipy

__all__ = ["gammaincinv", "gammaln", "log_ndtr", "ndtr", "ndtri", "ndtri_exp",
           "owens_t", "stdtr", "stdtrit"]


def _ufuncs(names):
    """The ufuncs ``names``: from ``scipy.special._ufuncs`` imported under a
    stub package, unless ``scipy.special`` is loaded or that import fails."""
    if "scipy.special" not in sys.modules:
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
        sys.modules["scipy.special"] = stub
        try:
            return attrgetter(*names)(importlib.import_module("scipy.special._ufuncs"))
        except (ImportError, AttributeError):
            pass
        finally:
            del sys.modules["scipy.special"]
    return attrgetter(*names)(importlib.import_module("scipy.special"))


(gammaincinv, gammaln, log_ndtr, ndtr, ndtri, ndtri_exp, owens_t, stdtr,
 stdtrit) = _ufuncs(__all__)
