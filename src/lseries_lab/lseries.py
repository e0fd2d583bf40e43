"""Dirichlet L-series: truncated sums, continued evaluation, zero scanning.

Every series term in the package (partial sums, step profiles, volumes,
factor vectors, phase and chi^4 sums) comes from one private kernel,
``_terms``: chi(n)^m * n^(-m s) with n^-s = n^-sigma * (cos(t ln n) -
i sin(t ln n)), chi(n)^m read from a residue table converted once per call.
Every truncation sum over those terms is read from ``_running_sums`` (one
walk, the sum at each of several truncations); every vector of them (step
profile, factor vector) is laid out by ``_term_vector``.

A point s = sigma + i*t is a Python complex from entry to kernel: every
public function takes an int, float or complex and converts it with
``complex(s)``.  A point with ``s.imag == 0.0`` (-0.0 too) is on the real
axis and is computed in float arithmetic; the pole test is ``s == 1``.

Two evaluation routes:

* ``partial_sum`` -- the plain truncation sum(chi(n) * n^-s, n <= N), summed
  in index order.
* ``evaluate`` -- the exact rearrangement
  L(s, chi) = q^-s * sum(chi(a) * zeta(s, a/q), a = 1..q), every
  zeta(s, a/q) from one Euler-Maclaurin pass (Bernoulli corrections through
  B12) at one shift per evaluation: the default 20, doubled until the
  tolerance (or the roundoff floor) is met at the smallest residue 1/q, and
  so at every residue.  Valid for sigma > -1.  Off s = 1 the method is
  ``hurwitz`` and ``n_used`` is that shift.  At s = 1 (non-principal chi
  only) each zeta(1, a/q) is taken as its finite part -digamma(a/q), the
  pole parts cancelling because chi sums to zero over a period; the method
  is ``grouped`` and ``n_used`` is shift * q, the complete length-q periods
  the pass sums directly.

``scan_zeros`` walks a uniform sigma grid in (0, 1) for a real character,
brackets sign changes of the (real) L-values, and refines each bracket by
bisection until the midpoint's |L| is within its error estimate
(``_scan_result`` does the bracketing for it and for the survey).
Err estimates propagate: truncation bounds from the Euler-Maclaurin
remainder plus a floating-point roundoff model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .characters import DirichletCharacter, _to_number, _value

__all__ = [
    "ContinuationRangeError",
    "LEvaluation",
    "NonRealCharacterError",
    "PoleError",
    "ScanGridError",
    "ScanResult",
    "SignChangeBracket",
    "evaluate",
    "hurwitz_zeta",
    "partial_sum",
    "scan_zeros",
]


class PoleError(ValueError):
    """Evaluation requested exactly at a pole (s = 1)."""


class ContinuationRangeError(ValueError):
    """sigma <= -1 lies outside the supported continuation range."""


class NonRealCharacterError(ValueError):
    """Real-axis zero scanning needs a real character."""


class ScanGridError(ValueError):
    """A scan grid needs at least two points."""


@dataclass(frozen=True)
class LEvaluation:
    """An L-value with its provenance: method tag (``hurwitz`` off s = 1,
    ``grouped`` at s = 1), ``n_used`` (the Euler-Maclaurin shift for
    ``hurwitz``; shift * q, the whole periods summed directly, for
    ``grouped``), and an error estimate."""

    value: complex
    method: str
    n_used: int
    err_estimate: float


def _residue_table(chi: DirichletCharacter, m: int = 1) -> list:
    """chi(a)^m for a in [0, q): the exact power, converted once -- 0 and +/-1
    stay ints (so real terms stay real), any other root of unity costs one exp."""
    powers = chi.values
    if m > 1:
        powers = [v**m if isinstance(v, int) else _value(v[1] * m, v[0]) for v in powers]
    return powers if chi.is_real else [_to_number(v) for v in powers]


def _terms(chi: DirichletCharacter, s: complex, stop: int, m: int = 1, start: int = 1):
    """Yield (n, chi(n)^m * n^(-m s)) for the units n in [start, stop), in
    order; at t = 0 no logarithm is taken and real chi gives real floats."""
    q = chi.modulus
    table = _residue_table(chi, m)
    sigma, t = m * s.real, m * s.imag
    for n in range(start, stop):
        v = table[n % q]
        if v:
            amp = n ** (-sigma)
            if t:
                angle = t * math.log(n)
                amp = complex(amp * math.cos(angle), -amp * math.sin(angle))
            yield n, v * amp


def _term_vector(chi: DirichletCharacter, s: complex, n_terms: int) -> tuple:
    """(chi(n) * n^-s for n = 1..n_terms) as a dense tuple, 0j off the units."""
    vec = [0j] * n_terms
    for n, term in _terms(chi, s, n_terms + 1):
        vec[n - 1] = term
    return tuple(vec)


def _running_sums(chi: DirichletCharacter, s: complex, truncations, m: int = 1) -> list:
    """[sum(chi(n)^m * n^(-m s), n <= N) for N in truncations], N increasing:
    one walk of the terms in index order, each sum continuing the last."""
    sums = []
    total = 0.0
    done = 0
    for n in truncations:
        for _, term in _terms(chi, s, n + 1, m, start=done + 1):
            total += term
        done = n
        sums.append(complex(total))
    return sums


def partial_sum(chi: DirichletCharacter, s, n_terms: int) -> complex:
    """sum(chi(n) * n^-s) for n = 1..n_terms, summed in index order."""
    s = complex(s)
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    return _running_sums(chi, s, [n_terms])[0]


# Bernoulli numbers B_2, B_4, ..., B_16, and B_2j / (2j)! from them.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_B_OVER_FACT = [b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1)]

_DEFAULT_SHIFT = 20
_DEFAULT_PAIRS = 6  # Bernoulli corrections through B12
_ROUNDOFF = 5e-16
_DEFAULT_TOL = 1e-10  # every L-value's default tolerance, down to zeta(s, x)


def _check_tols(**tols) -> None:
    """Reject, by name, any tolerance that is not > 0 (NaN included)."""
    for name, tol in tols.items():
        if not tol > 0:
            raise ValueError(f"{name} must be > 0, got {tol}")


def _euler_maclaurin_hurwitz(s_num, xs: Sequence[float], shift: int) -> list:
    """Core Euler-Maclaurin sum for zeta(s, x); returns [(value, err_estimate)
    for x in xs], all at the same shift.

    s_num is a float (real axis) or complex; each x in (0, 1].  At s = 1 the
    pole term w^(1-s)/(s-1) (w = shift + x) is replaced by its finite part
    -log(w), so each value is -digamma(x) = lim (zeta(s, x) - 1/(s-1)).
    The error estimate is the magnitude of the first omitted Bernoulli
    correction times a |s|-dependent safety factor, plus a roundoff term.
    The Bernoulli coefficients B_2j/(2j)! * s (s+1) ... (s + 2j - 2), the
    safety factor and the pole term depend on s alone, so they are chosen
    once per call.
    """
    pairs = _DEFAULT_PAIRS
    coeffs = []
    rising = s_num                # s (s+1) ... (s + 2j - 2), built incrementally
    for j in range(pairs):
        coeffs.append(_B_OVER_FACT[j] * rising)
        rising = rising * (s_num + 2 * j + 1) * (s_num + 2 * j + 2)
    omitted_coeff = _B_OVER_FACT[pairs] * rising
    safety = max(1.0, abs(s_num + 2 * pairs + 1) / (s_num.real + 2 * pairs + 1))
    at_pole = s_num == 1
    results = []
    for x in xs:
        acc = 0.0 if isinstance(s_num, float) else 0j
        for k in range(shift):
            acc += (k + x) ** (-s_num)
        w = shift + x
        acc += -math.log(w) if at_pole else w ** (1 - s_num) / (s_num - 1)
        acc += 0.5 * w ** (-s_num)
        w_pow = w ** (-s_num - 1)     # w^(-s - 2j + 1)
        for coeff in coeffs:
            acc += coeff * w_pow
            w_pow /= w * w
        omitted = abs(omitted_coeff * w_pow)
        results.append((acc, omitted * safety + _ROUNDOFF * (shift + pairs) * abs(acc)))
    return results


def _shift_for_tolerance(s: complex, x: float, tol: float) -> int:
    """Smallest shift >= the default whose first omitted correction estimate
    meets `tol`, or the roundoff floor if `tol` is below it (a larger shift
    only adds roundoff).  The default (20) already gives ~1e-21 on sigma in
    (0, 3]."""
    pairs = _DEFAULT_PAIRS
    shift = _DEFAULT_SHIFT
    mag = max(1.0, abs(s) + 2 * pairs + 1)
    target = max(tol, _ROUNDOFF)
    while True:
        estimate = abs(_B_OVER_FACT[pairs]) * mag ** (2 * pairs + 1) * (
            (shift + x) ** (-(s.real + 2 * pairs + 1))
        )
        if estimate <= target or shift >= 1 << 20:
            return shift
        shift *= 2


def _hurwitz(s: complex, xs: Sequence[float], tol: float) -> tuple:
    """([(zeta(s, x), err_estimate) for x in xs], shift): the point is checked
    and the shift picked once for all of xs.  The truncation estimate falls as
    x grows (sigma > -1), so the smallest x's shift meets `tol` for every x.
    At s = 1 each value is the finite part -digamma(x); the callers decide
    whether the pole they dropped matters."""
    for x in xs:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"x must lie in (0, 1], got {x}")
    if not cmath.isfinite(s):
        raise ValueError(f"s must be a finite point, got {s}")
    if s.real <= -1.0:
        raise ContinuationRangeError(
            f"sigma = {s.real} is outside the supported range sigma > -1"
        )
    s_num = s.real if s.imag == 0.0 else s
    shift = _shift_for_tolerance(s, min(xs), tol)
    return _euler_maclaurin_hurwitz(s_num, xs, shift), shift


def hurwitz_zeta(s, x: float, *, tol: float = _DEFAULT_TOL) -> complex:
    """zeta(s, x) for x in (0, 1], sigma > -1, by Euler-Maclaurin; raises
    PoleError at s = 1 and ValueError at an s with a NaN or infinite part."""
    _check_tols(tol=tol)
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, x) has a pole at s = 1")
    [(value, _)], _ = _hurwitz(s, [x], tol)
    return complex(value)


def evaluate(chi: DirichletCharacter, s, *, tol: float = _DEFAULT_TOL) -> LEvaluation:
    """L(s, chi) = q^-s * sum(chi(a) * zeta(s, a/q), a = 1..q), all from one
    Euler-Maclaurin pass (for q = 1, the Riemann zeta continuation).

    At s = 1 the pass gives each zeta(1, a/q) as its finite part
    -digamma(a/q); the pole parts cancel for non-principal chi (sum(chi(a))
    = 0), so L(1, chi) = -(1/q) * sum(chi(a) * digamma(a/q)), tagged
    ``grouped``.  The PoleError check lives here, for principal chi at s = 1;
    sigma <= -1 raises ContinuationRangeError, and a NaN or infinite part of
    s ValueError, before any series is summed.  `tol` must be > 0; the shift
    stops growing at the roundoff floor 5e-16, so a smaller `tol` returns an
    ``err_estimate`` above `tol`.
    """
    _check_tols(tol=tol)
    s = complex(s)
    q = chi.modulus
    if s == 1 and chi.is_principal:
        raise PoleError("L(s, principal chi) has a pole at s = 1")
    table = _residue_table(chi)
    units = [a for a in range(1, q + 1) if table[a % q]]
    zetas, shift = _hurwitz(s, [a / q for a in units], tol)
    acc = 0.0 if s.imag == 0.0 and chi.is_real else 0j
    abs_acc = 0.0
    err = 0.0
    for a, (z, e) in zip(units, zetas):
        acc += table[a % q] * z
        abs_acc += abs(z)
        err += e
    prefactor = q ** (-(s.real if s.imag == 0.0 else s))
    value = prefactor * acc
    err = abs(prefactor) * (err + _ROUNDOFF * abs_acc)
    method, n_used = ("grouped", shift * q) if s == 1 else ("hurwitz", shift)
    return LEvaluation(value=complex(value), method=method, n_used=n_used, err_estimate=err)


@dataclass(frozen=True)
class SignChangeBracket:
    """A grid interval where the L-value changed sign, and the root estimate:
    the bisection midpoint, or the grid sigma where the value is exactly 0."""

    lo: float
    hi: float
    root: float


@dataclass(frozen=True)
class ScanResult:
    """Grid scan of sigma -> L(sigma, chi) on the real axis."""

    sigmas: tuple
    values: tuple
    err_estimates: tuple
    brackets: tuple
    min_abs: float
    argmin_sigma: float

    @property
    def found_sign_change(self) -> bool:
        return len(self.brackets) > 0


def _bisect_sign_change(f, lo: float, hi: float, f_lo: float) -> float:
    """Bisect [lo, hi], where f (returning (value, err_estimate)) changes sign
    from f_lo at lo, down to the first midpoint whose |value| is within its
    own err_estimate (there the sign no longer tells), or until the midpoint
    rounds to an end; return that midpoint."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid, err = f(mid)
        if abs(f_mid) <= err:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid


def _scan_result(chi, sigmas, pairs, hurwitz_tol: float) -> ScanResult:
    """The scan of real chi from its grid values pairs = [(L(sigma), err)]:
    consecutive values of opposite signs are bracketed and refined by
    bisection (evaluating chi directly at `hurwitz_tol`) until the sign is
    lost in the error estimate, and the grid minimum of |L| is recorded."""
    values, errs = map(tuple, zip(*pairs))

    def l_real(sigma: float) -> tuple:
        ev = evaluate(chi, sigma, tol=hurwitz_tol)
        return ev.value.real, ev.err_estimate

    brackets = []
    for i in range(len(sigmas) - 1):
        left, right = values[i], values[i + 1]
        if left == 0.0:
            brackets.append(SignChangeBracket(sigmas[i], sigmas[i], sigmas[i]))
            continue
        if (left < 0.0) != (right < 0.0) and right != 0.0:
            root = _bisect_sign_change(l_real, sigmas[i], sigmas[i + 1], left)
            brackets.append(SignChangeBracket(sigmas[i], sigmas[i + 1], root))

    i_min = min(range(len(sigmas)), key=lambda i: abs(values[i]))
    return ScanResult(
        sigmas=sigmas,
        values=values,
        err_estimates=errs,
        brackets=tuple(brackets),
        min_abs=abs(values[i_min]),
        argmin_sigma=sigmas[i_min],
    )


def scan_zeros(
    chi: DirichletCharacter,
    lo: float,
    hi: float,
    grid_points: int,
    *,
    hurwitz_tol: float = _DEFAULT_TOL,
) -> ScanResult:
    """Scan L(sigma, chi) for real chi on a uniform sigma grid in (0, 1).

    On the real axis ``evaluate`` runs in floats for real chi, so each value
    is exactly real.  Grid values of opposite signs are bracketed and refined
    by bisection, which stops at the first midpoint whose |L| is within its
    own error estimate (or at adjacent floats).  The grid minimum of |L| and
    its sigma are recorded whether or not any sign change exists.  Every
    L-value is evaluated at `hurwitz_tol`, which must be > 0.
    """
    _check_tols(hurwitz_tol=hurwitz_tol)
    if not chi.is_real:
        raise NonRealCharacterError("real-axis scanning requires a real character")
    if grid_points < 2:
        raise ScanGridError(f"need at least 2 grid points, got {grid_points}")
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"scan window must satisfy 0 < lo < hi < 1, got [{lo}, {hi}]")
    step = (hi - lo) / (grid_points - 1)
    sigmas = tuple(lo + i * step for i in range(grid_points))
    evs = [evaluate(chi, sigma, tol=hurwitz_tol) for sigma in sigmas]
    pairs = [(ev.value.real, ev.err_estimate) for ev in evs]
    return _scan_result(chi, sigmas, pairs, hurwitz_tol)
