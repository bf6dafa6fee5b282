"""Numerical toolkit for dilute and charged Bose gas energetics.

Modules by topic:

- ``scattering``   zero-energy two-body scattering in 2D/3D, scattering
  lengths, the kinetic fraction ``s`` and the exact energy identity
- ``homogeneous``  closed-form upper/lower bounds for the homogeneous gas,
  Temple's inequality, soft potentials, cell-method combinatorics, the
  Bogoliubov integral behind the LHY constant
- ``meanfield``    Gross-Pitaevskii and Thomas-Fermi minimization in traps
- ``onedim``       Lieb-Liniger energy density, transverse modes, the five
  1D functionals and regime classification for elongated traps
- ``charged``      Bogolubov quadratic bound, Foldy constant and law, the
  two-component variational problem
- ``flows``        the normalized gradient flow every trap minimizer runs
- ``quadrature``   Simpson, tanh-sinh and Richardson's rule
- ``oracles``      independent brute-force verifiers (spectra, exact
  diagonalization, truncated Fock spaces)
- ``verify``       the invariant suite: every dual-route check, run in two
  forked workers
- ``config``       configuration files, their validation, and JSON and CSV
  records
- ``cli``          command-line front end and batch sweeps
"""

import os

__version__ = "0.1.0"

SCHEMA_VERSION = "1.0"

# the shipped e(t) table that ``onedim.default_curve`` reads and
# ``bosegas ll --emit-curve`` copies
LL_TABLE = os.path.join(os.path.dirname(__file__), "ll_table.csv")
