"""``scipy.special``, imported on first use.

Importing ``scipy.special`` takes longer than the rest of ``tailcorr``
together (most of it SciPy's array-API layer), and many runs never call a
special function: building and simulating a model that states its shape
in elementary functions, or ``tailcorr --version``.  The modules of the
package therefore write ``from . import _special`` and call
``_special.erfc(...)`` as they would call ``scipy.special.erfc``.  The
first attribute looked up here imports ``scipy.special`` (PEP 562
module ``__getattr__``), and every attribute is kept in this module's
globals once found, so a later lookup is an ordinary global one.
"""

from __future__ import annotations

import importlib


def __getattr__(name: str):
    value = getattr(importlib.import_module("scipy.special"), name)
    globals()[name] = value
    return value
