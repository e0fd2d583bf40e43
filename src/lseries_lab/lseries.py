"""Dirichlet L-series: truncated sums, continued evaluation, zero scanning.

Every series term in the package (partial sums, step profiles, volumes,
factor vectors, phase and chi^4 sums) comes from one private kernel,
``_terms``: the dense stream chi(n)^m * n**(-m s), n = 1, 2, ..., 0j off the
units, Python's power of the int n, chi(n)^m read from a residue table
made once per call (``_residue_table``).  A step profile or factor vector
is the tuple of that stream, and every truncation sum is read from
``_prefix_sums``: one running sum over a stream, taken at each of several
truncations.

A point s = sigma + i*t is a Python complex from entry to kernel: every
public function takes an int, float or complex and converts it with
``complex(s)``.  A point with ``s.imag == 0.0`` (-0.0 too) is on the real
axis and is computed in float arithmetic; the pole test is ``s == 1``.

Two evaluation routes:

* ``partial_sum`` -- the plain truncation sum(chi(n) * n^-s, n <= N), summed
  in index order.
* ``evaluate`` -- the exact rearrangement
  L(s, chi) = q^-s * sum(chi(a) * zeta(s, a/q), a = 1..q), every
  q^-s zeta(s, a/q) from one Euler-Maclaurin pass at one plan per
  evaluation: the shift N and the number M of Bernoulli corrections that
  cost least, N >= 10, among those whose rigorous remainder bound
  (Johansson 2015) meets the tolerance (or the roundoff floor) at the
  smallest residue 1/q, and so at every residue.  Every real point gets
  N = 10.  Valid for sigma > -1 and shifts below 2^20.  The pole term
  w^(1-s)/(s-1) is taken as (w^(1-s) - 1)/(s-1): the pass gives
  zeta(s, a/q) - 1/(s-1), with nothing of size 1/(s-1) to cancel next to
  s = 1.  For non-principal chi the dropped poles sum to zero; principal
  chi and ``hurwitz_zeta`` add them back once.  ``n_used`` is the shift.
  Off s = 1 the method is ``hurwitz``.  At s = 1 that term is -log w, so
  each zeta(1, a/q) is its finite part -digamma(a/q), from the same pass;
  the method tag there is ``grouped``.

Three memos keep what the characters mod q share, each for its last few
keys only, so none grows with the moduli or points asked:

* ``_modulus(q)``, the last q: the units a = 1..q, their residues a % q
  (the units themselves past q = 1) and the roots list of q, which the
  first complex chi mod q to be read fills (``_roots``): entry e is
  exp(2*pi*i*e/L) as a number, L = lambda(q), converted from its reduced
  pair, and entry L is 0.  So a root of unity is converted once per q, a
  real chi (which reads 1 and -1 only) converts none, and ``evaluate``
  reads chi's exponents on the units only.
* ``_residue_pass(q, s, tol)``, the last ``_PASSES_KEPT``: each unit's
  q^-s (zeta(s, a/q) - 1/(s-1)) with the summed sizes and error bounds;
  it never depends on chi, so a group evaluated at a few points runs each
  pass once.
* ``_shifted(xs, q, N)``, the last one: each unit's w = N + a/q, log w,
  1/w^2 and a + qN, free of s; every real point has N = 10, so a scan
  builds it once.

``scan_zeros`` walks a uniform sigma grid in (0, 1) for a real character,
brackets sign changes of the (real) L-values and exact zeros at any grid
point, and refines each sign change by bisection until the midpoint's |L|
is within its error estimate.  ``_scan_grid`` makes the grid of every CLI,
audit and survey scan: sigma = h, 2h, ... up to ~1 - h, a finite step
h > 0 (0.01).  Err estimates propagate: the Euler-Maclaurin remainder bound
plus a floating-point roundoff model.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from operator import index
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
    """The point is outside the range computed here: sigma <= -1, a series
    term or a Hurwitz power (q^-s, (x + q k)^-s, x^-s itself at k = 0) past
    the float range (at s = 1000 + 1e308i, say), or a point that needs an
    Euler-Maclaurin shift of 2^20 or more at its tolerance with every
    number of Bernoulli corrections up to 60 (at sigma = 0.5 and tol 1e-10,
    from |t| near 5.3e6)."""


class NonRealCharacterError(ValueError):
    """Real-axis zero scanning needs a real character."""


class ScanGridError(ValueError):
    """A scan grid needs at least two points."""


@dataclass(frozen=True)
class LEvaluation:
    """An L-value with its provenance: method tag (``hurwitz`` off s = 1,
    ``grouped`` at s = 1, the same Euler-Maclaurin pass), ``n_used`` (the
    pass's shift at every s), and ``err_estimate``: the rigorous remainder
    bound at the plan the shift came from, summed over the residues, plus a
    roundoff model (a principal chi's added-back pole included)."""

    value: complex
    method: str
    n_used: int
    err_estimate: float


def _roots(chi: DirichletCharacter):
    """What chi's exponents index, entry L (off the units) 0: for a real chi
    a map of 1 and -1, nothing converted; for a complex one the roots list of
    its modulus, filled on the first complex read.  The roots are converted
    from their reduced pairs: exp(2*pi*i*e/L) and exp(2*pi*i*k/d) round
    differently when L/d is not a power of 2."""
    L = chi.group_exponent
    # for L = 1 (q = 1, 2) the key 0 comes twice, and 1 is its last value
    roots = {L // 2: -1, 0: 1, L: 0} if chi.is_real else _modulus(chi.modulus)[2]
    if not roots:
        roots.extend(_to_number(_value(e, L)) for e in range(L + 1))
    return roots


def _residue_table(chi: DirichletCharacter, m: int = 1) -> list:
    """chi(a)^m for a in [0, q), for the term kernel: the number of exponent
    m e mod L (the sentinel L stays) from ``_roots``; 0 and +/-1 stay ints,
    so real terms stay real."""
    L = chi.group_exponent
    exponents = [m * e % L if e < L else L for e in chi.exponents] if m > 1 else chi.exponents
    return list(map(_roots(chi).__getitem__, exponents))


def _check_finite(s: complex) -> None:
    if not cmath.isfinite(s):
        raise ValueError(f"s must be a finite point, got {s}")


def _terms(chi: DirichletCharacter, s: complex, stop: int, m: int = 1):
    """Yield chi(n)^m * n**(-m s) for n = 1..stop-1, in order, 0j off the
    units; -m s is built from its parts (a product can flip a zero's sign),
    a float at t = 0, so real chi gives real floats there.  A point with a
    NaN or infinite part raises ValueError before any term, and a term past
    the float range (-m s itself, n^(-m sigma) or the phase m t log n)
    ContinuationRangeError naming the point."""
    _check_finite(s)
    q = chi.modulus
    table = _residue_table(chi, m)
    sigma, t = m * s.real, m * s.imag
    neg_s = complex(-sigma, -t) if t else -sigma
    if not cmath.isfinite(neg_s):
        raise ContinuationRangeError(f"at s = {s}, -{m}s = {neg_s} is past the float range")
    try:
        for n in range(1, stop):
            v = table[n % q]
            yield v * n**neg_s if v else 0j
    except (OverflowError, ZeroDivisionError):  # libm's range or domain error in the power
        raise ContinuationRangeError(
            f"at s = {s}, the term n^(-m s) with n = {n}, m = {m} is past the float range"
        ) from None


def _prefix_sums(terms, truncations) -> list:
    """[sum(terms[:N], 0j) for N in truncations], N increasing, bit for bit:
    one running sum over the stream, read at each N."""
    running = accumulate(terms, initial=0j)  # item k is sum(terms[:k])
    skips = [n - m - 1 for m, n in zip([-1, *truncations], truncations)]  # items between Ns
    return [next(islice(running, k, None)) for k in skips]


def _running_sums(chi: DirichletCharacter, s: complex, truncations, m: int = 1) -> list:
    """[sum(chi(n)^m * n^(-m s), n <= N) for N in truncations], N increasing,
    from one walk of the terms."""
    return _prefix_sums(_terms(chi, s, truncations[-1] + 1, m), truncations)


def _count(n, what: str) -> int:
    """A term or rectangle count n as an int: TypeError unless integral, ValueError below 1."""
    n = index(n)
    if n < 1:
        raise ValueError(f"need at least one {what}, got {n}")
    return n


def partial_sum(chi: DirichletCharacter, s, n_terms: int) -> complex:
    """sum(chi(n) * n^-s) for n = 1..n_terms, summed in index order; a
    non-integral n_terms raises TypeError."""
    s = complex(s)
    n_terms = _count(n_terms, "term")
    return _running_sums(chi, s, [n_terms])[0]


def _bernoulli_over_factorial(count: int) -> tuple:
    """B_2j / (2j)! for j = 1..count, each one correctly rounded quotient of
    integers: B_2j / (2j)! = (-1)^(j+1) T_j / ((2j-1)! 4^j (4^j - 1)), with the
    tangent numbers T_j = 1, 2, 16, 272, ... from the Knuth-Buckholtz
    recurrence."""
    tangent = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tuple(
        (-1) ** (j + 1) * tangent[j] / (math.factorial(2 * j - 1) * 4**j * (4**j - 1))
        for j in range(1, count + 1)
    )


_MIN_SHIFT = 10  # below it w^(1-s)/(s-1) cancels the direct sum away (sigma near 0)
_MAX_SHIFT = (1 << 20) - 1
_MAX_PAIRS = 60
_PAIR_COST = 0.65  # one Bernoulli correction's time over one direct term's, measured
_B_OVER_FACT = _bernoulli_over_factorial(_MAX_PAIRS)
_ROUNDOFF = 5e-16
_EPS = 2.0**-53
_DEFAULT_TOL = 1e-10  # every L-value's default tolerance, down to zeta(s, x)
_DEFAULT_GRID_STEP = 0.01  # every scan's default sigma spacing (``_scan_grid``)
# One pass per point of a group evaluated character by character at s = 1
# and two heights (the lvalues benchmark); a scan's grid walks past them.
_PASSES_KEPT = 3
_LOG_4 = math.log(4.0)
_LOG_TAU = math.log(2.0 * math.pi)
_LOG_MAX_W = math.log(2.0 * _MAX_SHIFT)  # past it exp() could overflow; no N fits anyway


def _check_tols(**tols) -> None:
    """Reject, by name, any tolerance that is not > 0 (NaN included)."""
    for name, tol in tols.items():
        if not tol > 0:
            raise ValueError(f"{name} must be > 0, got {tol}")


def _plan(s_num, x_min: float, tol: float) -> tuple:
    """(shift N, pairs M, log_c, decay) for zeta(s, x), x >= x_min: the
    cheapest N + _PAIR_COST * M, N >= _MIN_SHIFT, whose remainder bound
    (Johansson 2015, Theorem 1)

        |R| <= 4 |(s)_2M| / (2 pi)^2M * w^-(sigma+2M-1) / (sigma+2M-1),

    w = N + x, meets max(tol, 5e-16) at x_min.  The bound is kept as
    exp(log_c - decay * log w), decay = sigma + 2M - 1, and each M's w is
    solved from it in log space, so no power of s or w is formed.  The cost
    with N not yet rounded up is convex in M, so the walk stops at the first
    M where it reaches the best cost found, or at a best plan with
    N = _MIN_SHIFT, which no larger M can beat.  No N up to _MAX_SHIFT for any
    M <= _MAX_PAIRS raises ContinuationRangeError."""
    if s_num == 0:
        return _MIN_SHIFT, 1, -math.inf, 1.0  # (s)_2M = 0: the remainder is 0
    sigma = s_num.real
    log_target = math.log(max(tol, _ROUNDOFF))
    log_rising = 0.0  # log |(s)_2M|
    best = None
    best_cost = math.inf
    for m in range(1, _MAX_PAIRS + 1):
        log_rising += math.log(abs(s_num + (2 * m - 2))) + math.log(abs(s_num + (2 * m - 1)))
        decay = sigma + (2 * m - 1)
        log_c = _LOG_4 + log_rising - 2 * m * _LOG_TAU - math.log(decay)
        log_w = (log_c - log_target) / decay
        need = math.exp(log_w) - x_min if log_w < _LOG_MAX_W else math.inf
        if need > _MAX_SHIFT:
            continue
        if max(_MIN_SHIFT, need) + _PAIR_COST * m >= best_cost:
            break
        shift = max(_MIN_SHIFT, math.ceil(need))
        if shift + _PAIR_COST * m < best_cost:
            best, best_cost = (shift, m, log_c, decay), shift + _PAIR_COST * m
            if shift == _MIN_SHIFT:  # every later M costs more than this one
                break
    if best is None:
        raise ContinuationRangeError(
            f"s = {complex(s_num)} needs an Euler-Maclaurin shift above {_MAX_SHIFT} "
            f"at tol {tol} and x = {x_min}"
        )
    return best


def _pole_free(s_num, log_w: float):
    """(w^(1-s) - 1) / (s - 1) from log w, with no cancellation near s = 1:
    with (1 - s) log w = a + ib, it is expm1(a) on the real axis and
    expm1(a) cos b - 2 sin^2(b/2) + i e^a sin b off it, over s - 1.  At
    s = 1 it is -log w."""
    if s_num == 1:
        return -log_w
    if isinstance(s_num, float):
        return math.expm1((1.0 - s_num) * log_w) / (s_num - 1.0)
    z = (1.0 - s_num) * log_w
    half = math.sin(0.5 * z.imag)
    num = complex(
        math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
        math.exp(z.real) * math.sin(z.imag),
    )
    return num / (s_num - 1.0)


def _hurwitz(s: complex, xs: Sequence, tol: float, q: int = 1) -> tuple:
    """(values, sum of |value|, sum of err_estimate, shift): the values
    q^-s (zeta(s, x/q) - 1/(s-1)) in the order of xs, at s = 1 the finite
    part -digamma(x/q)/q, every x at the plan ``_plan`` makes for
    min(xs)/q, and both sums taken in that order; the caller keeps each x/q
    in (0, 1].  A NaN or infinite part and sigma <= -1 raise first, and a
    power past the float range in the pass, x^-s the first,
    ContinuationRangeError.

    The point is a float on the real axis.  The direct terms are
    (x + q k)^-s, k < N.  With w = N + x/q, the tail q^-s [w^-s/2 + sum of
    B_2j/(2j)! (s)_(2j-1) w^(-s-2j+1), j <= M] is summed as (x + q N)^-s
    [1/2 + sum of B_2j/(2j)! (s)_(2j-1) w^(1-2j)], each correction made
    from the one before, so nothing overflows where L is finite; the pole
    term is q^-s (w^(1-s) - 1)/(s-1) (``_pole_free``).  What depends on the
    shift and not on s (w, log w, 1/w^2, x + q N) is read from ``_shifted``;
    the plan, the correction factors, q^-s and every power are made here.
    The error estimate is the remainder bound at w times q^-sigma, plus
    5e-16 per operation on the value, plus 2^-53 (N + |t| log(x + q N))
    times G, the summed sizes of the direct terms (on the real axis their
    sum; off it, its integral bound), for the additions and each term's
    rounded phase t log n.
    """
    _check_finite(s)
    if s.real <= -1.0:
        raise ContinuationRangeError(f"sigma = {s.real} is outside the supported range sigma > -1")
    s_num = s.real if s.imag == 0.0 else s
    shift, pairs, log_c, decay = _plan(s_num, min(xs) / q, tol)
    neg_s = -s_num
    sigma = s_num.real
    t = abs(s_num.imag)
    bound_scale = q**-sigma
    first = _B_OVER_FACT[0] * s_num
    factors = [
        _B_OVER_FACT[j] / _B_OVER_FACT[j - 1] * (s_num + (2 * j - 1)) * (s_num + 2 * j)
        for j in range(1, pairs)
    ]
    values = []
    abs_sum = 0.0
    err_sum = 0.0
    try:
        scale = q**neg_s
        for x, w, log_w, inv_w2, wq in zip(*_shifted(tuple(xs), q, shift)):
            direct = 0.0
            # a unit's bases x + q k are a range; hurwitz_zeta's x is a float
            for n in range(x, wq, q) if isinstance(x, int) else [x + q * k for k in range(shift)]:
                direct += n**neg_s
            term = first / w
            tail = 0.5 + term
            for f in factors:
                term *= f * inv_w2
                tail += term
            value = direct + wq**neg_s * tail + scale * _pole_free(s_num, log_w)
            if t == 0.0:
                size, phase = direct, 0.0
            else:
                x_pow = x**-sigma
                size = x_pow - x * x_pow * _pole_free(sigma, math.log(wq / x)) / q
                phase = t * math.log(wq)
            err = bound_scale * math.exp(log_c - decay * log_w)
            err += _ROUNDOFF * (shift + pairs) * abs(value) + _EPS * (shift + phase) * size
            values.append(value)
            abs_sum += abs(value)
            err_sum += err
    except (OverflowError, ZeroDivisionError):  # libm's range or domain error in a power
        raise ContinuationRangeError(f"at s = {s}, a Hurwitz power is past the float range") from None
    return values, abs_sum, err_sum, shift


@lru_cache(maxsize=1)
def _shifted(xs: tuple, q: int, shift: int) -> tuple:
    """The s-free half of a pass at shift N, for the last (xs, q, N): (xs,
    w = N + x/q, log w, 1/w^2, x + q N), each in the order of xs, the floats
    in arrays of doubles (8 bytes a residue); every pass only reads it.  The
    kernel reads each x back from here, so x and x + q N always match in
    type; a key equal in value but not in type (1.0 for the unit 1) gives
    the same terms, since every use but the integer range computes in
    floats."""
    ws = array("d", [shift + x / q for x in xs])
    log_ws = array("d", [math.log(w) for w in ws])
    inv_w2s = array("d", [1.0 / (w * w) for w in ws])
    return xs, ws, log_ws, inv_w2s, [x + q * shift for x in xs]


@lru_cache(maxsize=1)
def _modulus(q: int) -> tuple:
    """(the units a = 1..q in order, their residues a % q, the roots list of
    q, empty until ``_roots`` fills it)."""
    units = tuple(a for a in range(1, q + 1) if math.gcd(a, q) == 1)
    return units, units if q > 1 else (0,), []


@lru_cache(maxsize=_PASSES_KEPT)
def _residue_pass(q: int, s: complex, tol: float) -> tuple:
    """The ``_hurwitz`` pass over the units mod q; an exception is raised
    anew on each call.  An s with imaginary part 0.0 or -0.0 is one key, the
    real point to the pass.  Every caller gets the same list of values and
    only reads it."""
    return _hurwitz(s, _modulus(q)[0], tol, q)


def hurwitz_zeta(s, x: float, *, tol: float = _DEFAULT_TOL) -> complex:
    """zeta(s, x) for x in (0, 1], sigma > -1, by Euler-Maclaurin, the pole
    added back to the pass's value.  PoleError at s = 1, ValueError at an x
    outside (0, 1] or an s with a NaN or infinite part, ContinuationRangeError
    where a power is past the float range (x^-s at x = 0.25 from sigma = 512)."""
    _check_tols(tol=tol)
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, x) has a pole at s = 1")
    if not 0 < x <= 1:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    [value], _, _, _ = _hurwitz(s, [x], tol)
    return complex(value + 1.0 / (s.real - 1.0 if s.imag == 0.0 else s - 1.0))


def evaluate(chi: DirichletCharacter, s, *, tol: float = _DEFAULT_TOL) -> LEvaluation:
    """L(s, chi) = q^-s * sum(chi(a) * zeta(s, a/q), a = 1..q), all from one
    Euler-Maclaurin pass (for q = 1, the Riemann zeta continuation) that
    every chi mod q shares; chi is read on the units only.

    The pass drops each residue's pole 1/(s-1), so no two terms of size
    1/(s-1) cancel next to s = 1.  For non-principal chi they sum to zero,
    and at s = 1 each zeta(1, a/q) is its finite part -digamma(a/q), so
    L(1, chi) = -(1/q) * sum(chi(a) * digamma(a/q)), tagged ``grouped``;
    ``n_used`` is the pass's shift there too.
    Principal chi adds phi(q) q^-s/(s-1) back once, its size charged to the
    roundoff model like each residue's.
    The PoleError check lives here, for principal chi at s = 1; sigma <= -1
    raises ContinuationRangeError, and a NaN or infinite part of s
    ValueError, before any series is summed; so does a point past the shift
    cap (ContinuationRangeError).  A large real sigma (1e30 included) is in
    range: L is then about 1.  `tol` must be > 0 and bounds each residue's
    truncation error; the plan is solved for max(tol, 5e-16), the roundoff
    floor, so a smaller `tol` returns an ``err_estimate`` above `tol`.
    """
    _check_tols(tol=tol)
    s = complex(s)
    q = chi.modulus
    if s == 1 and chi.is_principal:
        raise PoleError("L(s, principal chi) has a pole at s = 1")
    zetas, abs_acc, err, shift = _residue_pass(q, s, tol)
    roots, exponents = _roots(chi), chi.exponents
    acc = 0.0
    for a, z in zip(_modulus(q)[1], zetas):
        acc += roots[exponents[a]] * z
    if chi.is_principal:
        s_num = s.real if s.imag == 0.0 else s
        pole = len(zetas) * q**-s_num / (s_num - 1.0)
        acc += pole
        abs_acc += abs(pole)
    err += _ROUNDOFF * abs_acc
    method = "grouped" if s == 1 else "hurwitz"
    return LEvaluation(value=complex(acc), method=method, n_used=shift, err_estimate=err)


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


def _l_real(chi, sigma: float) -> tuple:
    """(L(sigma, chi).real, its err_estimate): one scan value of real chi."""
    ev = evaluate(chi, sigma)
    return ev.value.real, ev.err_estimate


def _scan_grid(grid_step: float) -> tuple:
    """(lo, hi, points): sigma = grid_step, 2 * grid_step, ... up to ~1 - grid_step."""
    if not grid_step > 0:
        raise ValueError(f"grid step must be > 0, got {grid_step}")
    if not math.isfinite(grid_step):
        raise ValueError(f"grid step must be finite, got {grid_step}")
    gaps = (1.0 - 2.0 * grid_step) / grid_step
    if not math.isfinite(gaps):  # a subnormal step: the quotient overflows
        raise ValueError(f"grid step must leave a finite number of grid points, got {grid_step}")
    points = round(gaps) + 1
    if points < 2:
        raise ScanGridError(f"need at least 2 grid points, got {points}")
    return grid_step, grid_step + (points - 1) * grid_step, points


def scan_zeros(chi: DirichletCharacter, lo: float, hi: float, grid_points: int) -> ScanResult:
    """Scan L(sigma, chi) for real chi on a uniform sigma grid in (0, 1).

    On the real axis ``evaluate`` runs in floats for real chi, so each value
    is exactly real.  An exact zero at any grid point, the first and last
    included, is its own bracket; consecutive nonzero values of opposite signs
    are bracketed and refined by bisection, which stops at the first midpoint
    whose |L| is within its own error estimate (or at adjacent floats).  The
    grid minimum of |L| and its sigma are recorded whether or not any sign
    change exists.  Every L-value is ``evaluate``'s at its default
    tolerance; a scan takes none.
    """
    if not chi.is_real:
        raise NonRealCharacterError("real-axis scanning requires a real character")
    grid_points = index(grid_points)
    if grid_points < 2:
        raise ScanGridError(f"need at least 2 grid points, got {grid_points}")
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"scan window must satisfy 0 < lo < hi < 1, got [{lo}, {hi}]")
    step = (hi - lo) / (grid_points - 1)
    sigmas = tuple(lo + i * step for i in range(grid_points))
    values, errs = map(tuple, zip(*(_l_real(chi, sigma) for sigma in sigmas)))
    brackets = []
    for i, left in enumerate(values):
        right = values[i + 1] if i + 1 < len(values) else 0.0  # the last point pairs with none
        if left == 0.0:
            brackets.append(SignChangeBracket(sigmas[i], sigmas[i], sigmas[i]))
        elif (left < 0.0) != (right < 0.0) and right != 0.0:
            root = _bisect_sign_change(lambda x: _l_real(chi, x), sigmas[i], sigmas[i + 1], left)
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
