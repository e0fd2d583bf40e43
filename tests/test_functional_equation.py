"""The functional equation as an oracle for ``evaluate`` and its error bound.

For a real primitive character chi mod q with parity a (chi(-1) = (-1)^a),
the completed L-function

    Lambda(s) = (q/pi)^((s+a)/2) * Gamma((s+a)/2) * L(s, chi)

satisfies Lambda(s) = Lambda(1 - s): the root number of a real primitive
character is 1.  Both sides come from ``evaluate``, so on the real axis the
identity links sigma in (-1, 0) to sigma in (1, 2) and 0 < sigma < 1/2 to its
mirror.  Each side's ``err_estimate``, scaled by its Gamma factor G, bounds
that side's error, so |Lambda(sigma) - Lambda(1 - sigma)| must stay within
|G(sigma)| err(sigma) + |G(1 - sigma)| err(1 - sigma).  The Gamma factor is
``math.gamma``; no mpmath is needed.  The grid keeps clear of sigma = 0 and 1,
where an even character's Gamma pole meets the trivial zero of L.
"""

import math

import pytest

from lseries_lab.characters import enumerate_real_characters
from lseries_lab.lseries import evaluate

# the left half of a grid closed under sigma -> 1 - sigma
LEFT_SIGMAS = (-0.9, -0.7, -0.45, -0.2, 0.15, 0.35)

REAL_PRIMITIVE = [
    chi
    for q in range(3, 200)
    for chi in enumerate_real_characters(q)
    if not chi.is_principal and chi.conductor == q
]


def completed(chi, sigma):
    """(Lambda(sigma), |G(sigma)| * err_estimate) for real primitive chi."""
    q = chi.modulus
    a = 0 if chi.values[q - 1] == 1 else 1
    x = (sigma + a) / 2
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
