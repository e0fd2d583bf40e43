"""The functional equation as an oracle for ``evaluate`` and its error bound.

For a primitive character chi mod q with parity a (chi(-1) = (-1)^a), the
completed L-function

    Lambda(s, chi) = G(s) * L(s, chi),  G(s) = (q/pi)^((s+a)/2) * Gamma((s+a)/2),

satisfies Lambda(s, chi) = eps(chi) * Lambda(1 - s, conj(chi)), with the root
number eps(chi) = tau(chi) / (i^a sqrt(q)) from the Gauss sum
tau(chi) = sum(chi(n) e^(2 pi i n/q)), |eps| = 1.  Both sides come from
``evaluate``.  Each side's ``err_estimate``, scaled by its |G|, bounds that
side's error, so the two sides must differ by at most
|G(s)| err(s) + |G(1 - s)| err(1 - s).

* Real primitive chi, q < 200: eps = 1 and conj(chi) = chi, so on the real
  axis Lambda(sigma) = Lambda(1 - sigma) links sigma in (-1, 0) to sigma in
  (1, 2) and 0 < sigma < 1/2 to its mirror.  G is ``math.gamma``; no mpmath
  is needed.  The grid keeps clear of sigma = 0 and 1, where an even
  character's Gamma pole meets the trivial zero of L.
* Complex primitive chi, q <= 40: conj(chi) from the negated exact
  exponents, eps from the exact table, G from ``mpmath.loggamma``, at seeded
  points with -0.9 < sigma < 1.9 and t = 0 or |t| <= 50.
"""

import cmath
import math
import random

import mpmath
import pytest

from lseries_lab.characters import (
    DirichletCharacter,
    _value,
    enumerate_characters,
    enumerate_real_characters,
)
from lseries_lab.lseries import evaluate

# the left half of a grid closed under sigma -> 1 - sigma
LEFT_SIGMAS = (-0.9, -0.7, -0.45, -0.2, 0.15, 0.35)

REAL_PRIMITIVE = [
    chi
    for q in range(3, 200)
    for chi in enumerate_real_characters(q)
    if not chi.is_principal and chi.conductor == q
]


COMPLEX_PRIMITIVE = [
    chi
    for q in range(3, 41)
    for chi in enumerate_characters(q)
    if not chi.is_real and chi.conductor == q
]


def parity(chi):
    """a in {0, 1} with chi(-1) = (-1)^a."""
    return 0 if chi.values[chi.modulus - 1] == 1 else 1


def completed(chi, sigma):
    """(Lambda(sigma), |G(sigma)| * err_estimate) for real primitive chi."""
    q = chi.modulus
    x = (sigma + parity(chi)) / 2
    gamma_factor = (q / math.pi) ** x * math.gamma(x)
    ev = evaluate(chi, sigma)
    assert ev.value.imag == 0.0
    return gamma_factor * ev.value.real, abs(gamma_factor) * ev.err_estimate


def test_every_real_primitive_character_below_200_is_covered():
    # one real primitive character per fundamental discriminant d, |d| < 200
    assert len(REAL_PRIMITIVE) == 122
    assert {chi.values[chi.modulus - 1] for chi in REAL_PRIMITIVE} == {1, -1}


@pytest.mark.parametrize("sigma", LEFT_SIGMAS)
def test_lambda_is_symmetric_within_the_error_estimates(sigma):
    for chi in REAL_PRIMITIVE:
        left, left_err = completed(chi, sigma)
        right, right_err = completed(chi, 1.0 - sigma)
        bound = left_err + right_err
        assert abs(left - right) <= bound, (chi.modulus, chi.values[:8], sigma)
        # the bound is tight enough to mean something: a relative change of
        # 1e-6 in either L-value would break the identity
        assert bound <= 1e-6 * abs(right), (chi.modulus, sigma, bound, right)


def conjugate(chi):
    """conj(chi): every exact exponent k of order d negated."""
    values = [v if isinstance(v, int) else _value(-v[1] % v[0], v[0]) for v in chi.values]
    return DirichletCharacter.from_values(chi.modulus, values)


def root_number(chi):
    """eps(chi) = tau(chi) / (i^a sqrt(q)), tau from the exact table."""
    q = chi.modulus
    tau = sum(chi.value_complex(n) * cmath.exp(2j * math.pi * n / q) for n in range(1, q))
    return tau / (1j ** parity(chi) * math.sqrt(q))


def completed_complex(chi, s):
    """(Lambda(s, chi), |G(s)| * err_estimate), G from mpmath's log-Gamma."""
    x = (s + parity(chi)) / 2
    gamma_factor = cmath.exp(x * math.log(chi.modulus / math.pi) + complex(mpmath.loggamma(x)))
    ev = evaluate(chi, s)
    return gamma_factor * ev.value, abs(gamma_factor) * ev.err_estimate


def test_every_complex_primitive_character_to_40_is_covered():
    assert len(COMPLEX_PRIMITIVE) == 258
    for chi in COMPLEX_PRIMITIVE:
        bar = conjugate(chi)
        assert bar.conductor == chi.modulus and bar.values != chi.values
        assert conjugate(bar) == chi
        assert all(
            abs(bar.value_complex(n) - chi.value_complex(n).conjugate()) <= 1e-14
            for n in range(chi.modulus)
        )


def test_root_numbers_lie_on_the_unit_circle():
    for chi in COMPLEX_PRIMITIVE:
        assert abs(abs(root_number(chi)) - 1.0) <= 1e-12, (chi.modulus, chi.values)


def test_complex_lambda_reflects_to_the_conjugate_within_the_error_estimates():
    rng = random.Random(20261019)
    for chi in COMPLEX_PRIMITIVE:
        eps, bar = root_number(chi), conjugate(chi)
        for t in (0.0, *(rng.uniform(-50.0, 50.0) for _ in range(3))):
            s = complex(rng.uniform(-0.9, 1.9), t)
            left, left_err = completed_complex(chi, s)
            right, right_err = completed_complex(bar, 1 - s)
            bound = left_err + right_err
            case = (chi.modulus, chi.values, s)
            assert abs(left - eps * right) <= bound, case
            # as on the real axis, a relative change of 1e-6 in either
            # L-value would break the identity
            assert bound <= 1e-6 * abs(left), case
