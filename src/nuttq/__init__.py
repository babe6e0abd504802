"""Nuttall Q, Marcum Q and incomplete Toronto function toolkit.

Series evaluators with closed-form truncation error bounds, finite closed
forms at half-odd-integer orders, 1F1 upper bounds, and an independent
quadrature oracle for validating all of it.  The evaluators use only the
stdlib; the oracle is the only consumer of numpy/scipy.

``import nuttq`` loads neither numpy nor scipy.  The oracle's names
(``oracle_nuttall``, ``read_golden``, ...) are still exported here, but
resolved on first access, which is when :mod:`nuttq.oracle` and with it
numpy are imported; scipy follows on the first adaptive oracle value.

Each module's ``__all__`` is the one list of its public names; this package
re-exports them and builds its own ``__all__`` from them.  The error
classes are listed in :mod:`nuttq.errors`, and the oracle's names in
``_ORACLE_NAMES`` below, which :mod:`nuttq.oracle` reads as its
``__all__``.  Each error class's attributes are its payload: a CLI JSON
error record carries every one of them.
"""

from . import errors, nuttall, special, toronto
from .errors import *  # noqa: F403
from .nuttall import *  # noqa: F403
from .special import *  # noqa: F403
from .toronto import *  # noqa: F403

__version__ = "0.1.0"

# nuttq.oracle's public names; its __all__ is read from here, since the
# oracle module cannot be imported without importing numpy.
_ORACLE_NAMES = frozenset({
    "OracleValue",
    "GoldenEntry",
    "GOLDEN_TOL",
    "oracle_nuttall",
    "oracle_toronto",
    "oracle_marcum",
    "golden_path",
    "read_golden",
    "write_golden",
})

__all__ = [
    *errors.__all__,
    *special.__all__,
    *nuttall.__all__,
    *toronto.__all__,
    *sorted(_ORACLE_NAMES),
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: numpy loads on the first use of an oracle name.  Not
    # cached, so the name always resolves to what nuttq.oracle holds now.
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
