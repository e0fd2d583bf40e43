"""Step-profile solids of revolution and the Pappus cross-check.

The N-term truncation of an L-series at s (a Python complex) is read as a
step profile over [0, N]: rectangle n (on [n-1, n]) has complex height
f_n = chi(n) / n^s, and a profile is the plain tuple of its N heights (any
sequence of heights will do for ``barycenter``).  Revolving each rectangle
about the axis gives a cylinder of volume pi * f_n^2, so the total volume
is V = pi * sum(chi(n)^2 * n^-2s).  The profile's barycenter has closed forms

    xi  = sum((n - 1/2) * f_n) / sum(f_n)        (abscissa)
    eta = (1/2) * sum(f_n^2) / sum(f_n)          (height)

and the Pappus relation V = 2 * pi * eta * S (with S = sum(f_n) the profile
area) is an exact identity at every truncation; ``pappus_check`` reports the
residual.  All quantities are formal: heights are complex, so "areas" and
"volumes" are complex numbers and a profile can have total area exactly zero
(then the barycenter is undefined -- ZeroAreaError).

The tests check the barycenter closed forms against midpoint quadrature.
V is built from the squared character values at 2s, never from the squared
heights, so the Pappus residual compares two independent computations.  The
abscissa xi is reported for completeness but nothing downstream consumes it.

``transformed_equation_residual`` returns the pair (S_N, W_N) with
W_N = sum(chi(n)^2 * n^-2s): W is a sum of nonnegative terms whenever chi is
real and t = 0, which is the positivity fact the audit module records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import DirichletCharacter
from .lseries import _running_sums, _term_vector, _terms

__all__ = [
    "PappusReport",
    "ZeroAreaError",
    "barycenter",
    "cylinder_volume",
    "pappus_check",
    "rect_area",
    "step_profile",
    "transformed_equation_residual",
]


class ZeroAreaError(ValueError):
    """The step profile's total area is exactly zero; no barycenter exists."""


def _term(chi: DirichletCharacter, s, n: int, m: int) -> complex:
    """chi(n)^m * n^(-m s) for one rectangle index n (0 off the units)."""
    if n < 1:
        raise ValueError(f"rectangle index must be >= 1, got {n}")
    return 0j + next((f for _, f in _terms(chi, complex(s), n + 1, m, start=n)), 0.0)


def rect_area(chi: DirichletCharacter, s, n: int) -> complex:
    """Signed (complex) area of rectangle n: chi(n) * n^-s."""
    return _term(chi, s, n, 1)


def cylinder_volume(chi: DirichletCharacter, s, n: int) -> complex:
    """Volume of the revolved rectangle n: pi * chi(n)^2 * n^-2s."""
    return math.pi * _term(chi, s, n, 2)


def step_profile(chi: DirichletCharacter, s, n_rects: int) -> tuple:
    """The truncation profile: the tuple of heights chi(n) * n^-s, n = 1..N."""
    if n_rects < 1:
        raise ValueError(f"need at least one rectangle, got {n_rects}")
    return _term_vector(chi, complex(s), n_rects)


def barycenter(heights) -> tuple:
    """(xi, eta) of the step profile with these heights, from the closed forms

        xi  = sum((n - 1/2) * f_n) / sum(f_n)
        eta = (1/2) * sum(f_n^2) / sum(f_n)

    Raises ZeroAreaError when sum(f_n) is exactly zero.
    """
    area = sum(heights, 0j)
    if area == 0:
        raise ZeroAreaError("step profile has total area exactly zero")
    moment = sum(((n - 0.5) * f for n, f in enumerate(heights, start=1)), 0j)
    square = sum((f * f for f in heights), 0j)
    return moment / area, square / (2 * area)


@dataclass(frozen=True)
class PappusReport:
    """The Pappus identity audit at one truncation: profile area S, solid
    volume V, barycenter (xi, eta), and residual |V - 2 pi eta S|."""

    profile_area: complex
    volume: complex
    xi: complex
    eta: complex
    residual: float

    @property
    def relative_residual(self) -> float:
        return self.residual / max(1.0, abs(self.volume))


def pappus_check(chi: DirichletCharacter, s, n_rects: int) -> PappusReport:
    """Check V = 2 pi eta S at truncation N.

    S is the profile area (its heights summed in index order), V = pi *
    sum(chi(n)^2 * n^-2s) from the squared character values at 2s (never the
    squared heights), and eta from the barycenter closed form, so the
    residual genuinely compares two computation paths.  Exact zero profile
    area raises ZeroAreaError (propagated from the barycenter).
    """
    s = complex(s)
    return _pappus_report(step_profile(chi, s, n_rects), _running_sums(chi, s, [n_rects], 2)[0])


def _pappus_report(heights, square_sum: complex) -> PappusReport:
    """The Pappus report of a profile's heights, given sum(chi(n)^2 * n^-2s)
    over its rectangles; shared by ``pappus_check`` and the audit's prefixes."""
    area = sum(heights, 0j)
    volume = math.pi * square_sum
    xi, eta = barycenter(heights)
    residual = abs(volume - 2 * math.pi * eta * area)
    return PappusReport(
        profile_area=area, volume=volume, xi=xi, eta=eta, residual=residual
    )


def transformed_equation_residual(chi: DirichletCharacter, s, n_terms: int) -> tuple:
    """(S_N, W_N): the truncation sum and its squared-character companion
    W_N = sum(chi(n)^2 * n^-2s).  For real chi at t = 0 every W term is
    nonnegative, so W_N > 0 and is nondecreasing in N."""
    s = complex(s)
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    return _running_sums(chi, s, [n_terms])[0], _running_sums(chi, s, [n_terms], 2)[0]
