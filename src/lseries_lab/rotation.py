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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import DirichletCharacter
from .lseries import _running_sums, _terms

__all__ = [
    "PappusReport",
    "ZeroAreaError",
    "barycenter",
    "pappus_check",
    "step_profile",
]


class ZeroAreaError(ValueError):
    """The step profile's total area is exactly zero; no barycenter exists."""


def step_profile(chi: DirichletCharacter, s, n_rects: int) -> tuple:
    """The truncation profile: the tuple of heights chi(n) * n^-s, n = 1..N."""
    if n_rects < 1:
        raise ValueError(f"need at least one rectangle, got {n_rects}")
    return tuple(_terms(chi, complex(s), n_rects + 1))


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
