"""The supported parameter box.

Orders m, n lie in [0, ORDER_MAX], the scale parameter (a for Nuttall, r for
Toronto) in (0, SCALE_MAX], the limit parameter (b for Nuttall, B for Toronto)
in [0, LIMIT_MAX].  The box covers every grid this package is tested on with
head room, while staying inside the range where the quadrature oracle's tail
majorant and both of its schemes were validated.  check_box is the one place
the box is checked: the CLI refuses requests outside it, and the oracle
refuses to integrate there.  The oracle's tolerances live here too: the
range it accepts, [TOL_MIN, TOL_MAX], and its default, ORACLE_TOL.  Stdlib
only, so the CLI can check the box and read the tolerances without
importing the oracle's numpy/scipy.
"""

from .errors import DomainError

ORDER_MAX = 10.0
SCALE_MAX = 6.0        # a (nuttall) and r (toronto)
LIMIT_MAX = 8.0        # b (nuttall) and B (toronto)

# the oracle's absolute tolerances: the range it accepts, and the default of
# every oracle function, which is also the only one the CLI passes (compare
# and figure f1)
TOL_MIN = 1e-14
TOL_MAX = 1e-6
ORACLE_TOL = 1e-10


def check_box(m: float, n: float, scale: float, limit: float) -> None:
    """Raise DomainError unless (m, n, scale, limit) lies inside the box."""
    if not (0.0 <= m <= ORDER_MAX and 0.0 <= n <= ORDER_MAX):
        raise DomainError(f"orders must lie in [0, {ORDER_MAX}], got m={m}, n={n}")
    if not (0.0 < scale <= SCALE_MAX):
        raise DomainError(f"scale parameter must lie in (0, {SCALE_MAX}], got {scale}")
    if not (0.0 <= limit <= LIMIT_MAX):
        raise DomainError(f"limit parameter must lie in [0, {LIMIT_MAX}], got {limit}")
