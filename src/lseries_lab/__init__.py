"""lseries_lab: exact Dirichlet characters, real-axis L-series evaluation,
and formal bilinear-geometry audits of truncated series identities.

The package is pure standard-library Python.  Modules:

* :mod:`~lseries_lab.characters` -- exact character tables, the Kronecker
  symbol, conductors, deterministic enumerations.
* :mod:`~lseries_lab.lseries`    -- partial sums, Euler-Maclaurin Hurwitz
  zeta continuation, L-evaluation with error estimates, zero scanning.
* :mod:`~lseries_lab.resolution` -- amplitude/phase factor vectors of a
  truncation, phase-sum divergence witnesses.
* :mod:`~lseries_lab.cgeom`      -- unconjugated bilinear geometry in C^n
  (formal norms/cosines) and the frozen golden worked examples.
* :mod:`~lseries_lab.rotation`   -- step profiles (tuples of heights),
  barycenters, and the Pappus V = 2 pi eta S identity at finite truncation.
* :mod:`~lseries_lab.audit`      -- the eight-claim truncation audit and the
  real-character non-vanishing survey.
* :mod:`~lseries_lab.cli`        -- the ``lseries-lab`` data-export CLI.
"""

from .audit import CLAIM_IDS, ClaimResult, SurveyRow, nonvanishing_survey, run_audit
from .cgeom import (
    bilinear_dot,
    cosine_theorem_check,
    formal_cosine,
    formal_norm,
    formal_norm_sq,
    principal_sqrt,
    triangle_area,
    verify_appendix,
)
from .characters import (
    DirichletCharacter,
    enumerate_characters,
    enumerate_real_characters,
    kronecker_symbol,
    principal_character,
    unit_group_structure,
)
from .lseries import (
    LEvaluation,
    ScanResult,
    evaluate,
    hurwitz_zeta,
    partial_sum,
    scan_zeros,
)
from .resolution import AMPLITUDE_CHI, PHASE_CHI, build_vectors, phase_series_sums
from .rotation import PappusReport, barycenter, pappus_check, step_profile

__version__ = "0.1.0"
