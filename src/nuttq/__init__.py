"""Nuttall Q, Marcum Q and incomplete Toronto function toolkit.

Series evaluators with closed-form truncation error bounds, finite closed
forms at half-odd-integer orders, 1F1 upper bounds, and an independent
quadrature oracle for validating all of it.  The evaluators use only the
stdlib; the oracle is the only consumer of numpy/scipy.

``import nuttq`` loads neither numpy nor scipy.  The oracle's names
(``oracle_nuttall``, ``read_golden``, ...) are still exported here, but
resolved on first access, which is when :mod:`nuttq.oracle` and with it
numpy and scipy are imported.
"""

from .errors import (
    DomainError,
    NonConvergenceError,
    TermOverflowError,
    ToleranceNotMetError,
)
from .nuttall import (
    NuttallParams,
    marcum_q,
    nuttall_half_integer_closed,
    nuttall_integer_series,
    nuttall_q,
    nuttall_q_normalized,
    nuttall_recursion_residual,
    nuttall_series_adaptive,
    nuttall_series_truncated,
    nuttall_truncation_bound,
    nuttall_upper_bound_1f1,
)
from .special import (
    BoundReport,
    SeriesResult,
    bessel_i,
    bessel_i_scaled,
    ceil_half,
    classify_order,
    floor_half,
    kummer_1f1,
    lower_inc_gamma,
    lower_inc_gamma_log,
    sgn,
    upper_inc_gamma,
    upper_inc_gamma_log,
)
from .toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_marcum_residual,
    toronto_series_adaptive,
    toronto_series_truncated,
    toronto_t,
    toronto_truncation_bound,
    toronto_upper_bound_1f1,
)

__version__ = "0.1.0"

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


def __getattr__(name: str):
    # PEP 562: numpy/scipy load on the first use of an oracle name.  Not
    # cached, so the name always resolves to what nuttq.oracle holds now.
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)

__all__ = [
    "DomainError",
    "NonConvergenceError",
    "TermOverflowError",
    "ToleranceNotMetError",
    "SeriesResult",
    "BoundReport",
    "OracleValue",
    "GoldenEntry",
    "GOLDEN_CASES",
    "GOLDEN_TOL",
    "NuttallParams",
    "TorontoParams",
    "ceil_half",
    "floor_half",
    "sgn",
    "classify_order",
    "lower_inc_gamma",
    "upper_inc_gamma",
    "lower_inc_gamma_log",
    "upper_inc_gamma_log",
    "bessel_i",
    "bessel_i_scaled",
    "kummer_1f1",
    "oracle_nuttall",
    "oracle_toronto",
    "oracle_marcum",
    "golden_path",
    "read_golden",
    "write_golden",
    "nuttall_series_truncated",
    "nuttall_series_adaptive",
    "nuttall_integer_series",
    "nuttall_half_integer_closed",
    "nuttall_truncation_bound",
    "nuttall_upper_bound_1f1",
    "nuttall_recursion_residual",
    "marcum_q",
    "nuttall_q",
    "nuttall_q_normalized",
    "toronto_series_truncated",
    "toronto_series_adaptive",
    "toronto_closed_form_half",
    "toronto_truncation_bound",
    "toronto_upper_bound_1f1",
    "toronto_marcum_residual",
    "toronto_t",
    "__version__",
]
