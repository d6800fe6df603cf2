"""Exact enumeration of per-position statistics on Catalan-like families.

Modules:

* ``exact``   -- rationals, Q(sqrt 2), dense y-polynomials
* ``series``  -- truncated multivariate power series over those scalars
* ``objects`` -- exhaustive enumeration of the combinatorial families
* ``maps``    -- bijections between families and statistic transport
* ``gfcat``   -- generating-function catalog: closed forms + equations
* ``closed``  -- coefficient/average formulas, limits, asymptotics
* ``verify``  -- the cross-checking suites, one row per check
* ``cli``     -- the ``combstat`` command line tool
"""

__version__ = "0.1.0"
