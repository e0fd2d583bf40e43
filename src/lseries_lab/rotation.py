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

``_profile_sums`` reads S and both barycenter numerators as running sums, at
any truncations in one pass each.  The tests check the barycenter closed
forms against midpoint quadrature.
V is built from the squared character values at 2s, never from the squared
heights, so the Pappus residual compares two independent computations.  The
abscissa xi is reported for completeness but nothing downstream consumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from operator import mul

from .characters import DirichletCharacter
from .lseries import _count, _prefix_sums, _running_sums, _terms

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
    n_rects = _count(n_rects, "rectangle")
    return tuple(_terms(chi, complex(s), n_rects + 1))


def _profile_sums(heights, truncations) -> list:
    """[(S_N, M_N, Q_N) for N in truncations]: the running sums of f_n,
    (n - 1/2) * f_n and f_n^2 over a sequence of heights, each bit for bit
    its sum(..., 0j) over the first N heights."""
    addends = (heights, map(mul, count(0.5), heights), map(mul, heights, heights))
    return list(zip(*(_prefix_sums(terms, truncations) for terms in addends)))


def _barycenter(area, moment, square) -> tuple:
    """(xi, eta) from a profile's sums; ZeroAreaError when the area is 0."""
    if area == 0:
        raise ZeroAreaError("step profile has total area exactly zero")
    return moment / area, square / (2 * area)


def barycenter(heights) -> tuple:
    """(xi, eta) of the step profile with these heights, from the closed forms

        xi  = sum((n - 1/2) * f_n) / sum(f_n)
        eta = (1/2) * sum(f_n^2) / sum(f_n)

    Raises ZeroAreaError when sum(f_n) is exactly zero.
    """
    return _barycenter(*_profile_sums(heights, [len(heights)])[0])


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
    area raises ZeroAreaError (propagated from the barycenter).  The
    chi^2 n^-2s stream, whose terms leave the float range first, is walked
    before the profile is built, so a point past that range builds nothing.
    """
    s = complex(s)
    n_rects = _count(n_rects, "rectangle")
    square_sum = _running_sums(chi, s, [n_rects], 2)[0]
    sums = _profile_sums(step_profile(chi, s, n_rects), [n_rects])[0]
    return _pappus_report(*sums, square_sum)


def _pappus_report(area, moment, square, square_sum: complex) -> PappusReport:
    """The Pappus report of a profile from its sums (``_profile_sums``) and
    sum(chi(n)^2 * n^-2s) over its rectangles; shared with the audit."""
    volume = math.pi * square_sum
    xi, eta = _barycenter(area, moment, square)
    residual = abs(volume - 2 * math.pi * eta * area)
    return PappusReport(
        profile_area=area, volume=volume, xi=xi, eta=eta, residual=residual
    )
