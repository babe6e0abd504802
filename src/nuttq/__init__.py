"""Nuttall Q, Marcum Q and incomplete Toronto function toolkit.

Series evaluators with closed-form truncation error bounds, finite closed
forms at half-odd-integer orders, 1F1 upper bounds, and an independent
quadrature oracle for validating all of it.  The evaluators use only the
stdlib; the oracle is the only consumer of numpy/scipy.

``import nuttq`` loads neither numpy nor scipy.  The oracle's names
(``oracle_nuttall``, ``read_golden``, ...) are still exported here, but
resolved on first access, which is when :mod:`nuttq.oracle` and with it
numpy and scipy are imported.

Each module's ``__all__`` is the one list of its public names; this package
re-exports them and builds its own ``__all__`` from them.
"""

from . import nuttall, special, toronto
from .errors import (
    DomainError,
    NonConvergenceError,
    TermOverflowError,
    ToleranceNotMetError,
)
from .nuttall import *  # noqa: F403
from .special import *  # noqa: F403
from .toronto import *  # noqa: F403

__version__ = "0.1.0"

# The same names as nuttq.oracle.__all__, which cannot be read without
# importing scipy; a test keeps the two equal.
_ORACLE_NAMES = frozenset({
    "OracleValue",
    "GoldenEntry",
    "GOLDEN_CASES",
    "GOLDEN_TOL",
    "oracle_nuttall",
    "oracle_toronto",
    "oracle_marcum",
    "golden_path",
    "read_golden",
    "write_golden",
})

__all__ = [
    "DomainError",
    "NonConvergenceError",
    "TermOverflowError",
    "ToleranceNotMetError",
    *special.__all__,
    *nuttall.__all__,
    *toronto.__all__,
    *sorted(_ORACLE_NAMES),
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: numpy/scipy load on the first use of an oracle name.  Not
    # cached, so the name always resolves to what nuttq.oracle holds now.
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
