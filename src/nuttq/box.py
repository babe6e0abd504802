"""The supported parameter box.

Orders m, n lie in [0, ORDER_MAX], the scale parameter (a for Nuttall, r for
Toronto) in (0, SCALE_MAX], the limit parameter (b for Nuttall, B for Toronto)
in [0, LIMIT_MAX].  The box covers every grid this package is tested on with
head room, while staying inside the range where the quadrature oracle's tail
majorant and both of its schemes were validated; the CLI refuses requests
outside it.  Plain constants, so the CLI can check the box without importing
the oracle's numpy/scipy.
"""

ORDER_MAX = 10.0
SCALE_MAX = 6.0        # a (nuttall) and r (toronto)
LIMIT_MAX = 8.0        # b (nuttall) and B (toronto)
