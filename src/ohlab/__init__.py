"""Numerical laboratory for operator-Hilbert-space norms.

Submodules:

* ``quad``      -- arcsine-measure quadrature and exact interval masses
* ``numlin``    -- certified positive matrices, commuting square roots, the interval type and verdicts
* ``geomean``   -- Pusz-Woronowicz primal/dual square-root formulas
* ``ohspace``   -- matrix-tuple norms (spectral oracle and alternating maximisation)
* ``kfunc``     -- two- and three-term sum-space norms on weighted grids
* ``tensorlog`` -- certified logarithmic tensor-norm brackets
* ``freeprob``  -- random-matrix and Fock-space freeness checks
* ``cli``       -- seeded experiment runner with machine-readable reports
"""

import sys

__version__ = "0.1.0"

__all__ = [
    "cli",
    "freeprob",
    "geomean",
    "kfunc",
    "numlin",
    "ohspace",
    "quad",
    "report",
    "tensorlog",
    "__version__",
]

# `python -m ohlab.cli` imports this package while sys.argv[0] is "-m", then runs
# cli.py as __main__, whose runners import what they run: importing cli here too
# would run it twice (runpy warns), and the rest would only slow a cold start.
# Every other import loads every submodule (the benchmark tracer reads them all
# from sys.modules after `import ohlab`).
if sys.argv[:1] != ["-m"]:
    from . import cli, freeprob, geomean, kfunc, numlin, ohspace, quad, report, tensorlog
