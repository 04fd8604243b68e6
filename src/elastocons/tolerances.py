"""Central tolerance record.

All numerical thresholds used by the checks and property tests live here, so
that a test and the code it exercises can never disagree about a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # tensor algebra
    sym_tol: float = 1e-9          # relative asymmetry allowed in "symmetric" input

    # admissibility checks
    normality_tol: float = 1e-8    # lower bound on |det N|
    ellipticity_tol: float = 1e-8  # lower bound on |det E|
    thermo_tol: float = 1e-5
    maxwell_tol: float = 1e-5
    galilean_tol: float = 1e-9
    parity_tol: float = 1e-9
    split_tol: float = 1e-6        # additive kinetic/stored energy split

    # Newton inversion of the velocity map
    newton_tol: float = 1e-10      # absolute, on the velocity residual
    newton_max_iter: int = 50

    # hyperbolicity analysis
    zero_band: float = 1e-8        # |lam| <= zero_band * smax counts as a zero eigenvalue
    indep_sv_tol: float = 1e-6     # smallest singular value for "linearly independent"
    se_tol: float = 1e-10          # strict positivity margin for strong ellipticity


DEFAULT = Tolerances()

# Central finite-difference steps: balance truncation vs roundoff at double
# precision for O(1) fields.
FD_SCALE = 1e-5
