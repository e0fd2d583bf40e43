"""Formal (unconjugated) bilinear geometry over C^n.

A vector (or point) is any sequence -- tuple or list -- of numbers.  The one
pairing is ``bilinear_dot``, sum(u_k * v_k) with no conjugation, and every
norm, cosine and area is built on it; a triangle's sides are the tuples
b - a.  Pairing, or subtracting, two sequences of different lengths raises
DimensionMismatchError.  With no conjugation, "lengths" are formal: the
squared norm of a nonzero vector can be zero (isotropic), negative, or
non-real, and square roots are taken on the principal branch with argument
in (-pi/2, pi/2].  In this geometry the cosine theorem

    (|AB|^2 + |AC|^2 - |BC|^2) / 2 = AB . AC

is an exact polynomial identity, and the triangle area

    area = principal_sqrt(|AB|^2 |AC|^2 - (AB . AC)^2) / 2

satisfies the Gram identity 4*area^2 + (AB . AC)^2 = |AB|^2 |AC|^2 and is
symmetric between the (AB, AC) and (AC, BC) vertex forms.

`verify_appendix` recomputes a frozen table of worked three-point examples
(two points in C^2, C^3, and C^4 with small Gaussian-integer coordinates)
and reports each recomputed quantity against its expected value.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

__all__ = [
    "AppendixCheck",
    "DimensionMismatchError",
    "IsotropicVectorError",
    "bilinear_dot",
    "cosine_theorem_check",
    "formal_cosine",
    "formal_norm",
    "formal_norm_sq",
    "principal_sqrt",
    "triangle_area",
    "verify_appendix",
]


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different dimensions are paired."""


class IsotropicVectorError(ValueError):
    """A vector with formal norm exactly zero has no formal cosine."""


def bilinear_dot(u, v) -> complex:
    """Unconjugated pairing sum(u_k * v_k) of two sequences of numbers."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimensions differ: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), 0j)


def _side(a, b) -> tuple:
    """The side from point a to point b, b - a componentwise."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"dimensions differ: {len(b)} vs {len(a)}")
    return tuple(y - x for x, y in zip(a, b))


def formal_norm_sq(u) -> complex:
    """Formal squared norm sum(u_k^2); may be zero, negative, or non-real."""
    return bilinear_dot(u, u)


def principal_sqrt(z: complex) -> complex:
    """Square root with argument in (-pi/2, pi/2].

    Negative reals map to +i * sqrt(|z|); a negative-zero imaginary part is
    normalized away first so the branch is a function of the value alone.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def cosine_theorem_check(a, b, c) -> tuple:
    """(lhs_half, dot, residual) for the cosine theorem at vertex A.

    lhs_half = (|AB|^2 + |AC|^2 - |BC|^2) / 2 and dot = AB . AC; the two are
    equal as polynomials in the coordinates, so residual = |lhs_half - dot|
    is rounding-level for any inputs.
    """
    ab, ac, bc = _side(a, b), _side(a, c), _side(b, c)
    lhs_half = (formal_norm_sq(ab) + formal_norm_sq(ac) - formal_norm_sq(bc)) / 2
    dot = bilinear_dot(ab, ac)
    return lhs_half, dot, abs(lhs_half - dot)


def formal_norm(u) -> complex:
    """principal_sqrt(formal_norm_sq(u)); may be 0 (isotropic) or non-real."""
    return principal_sqrt(formal_norm_sq(u))


def formal_cosine(u, v) -> complex:
    """bilinear_dot(u, v) over the product of the two formal norms.

    Raises IsotropicVectorError if either formal norm is exactly zero --
    e.g. (1, i) is a nonzero isotropic vector.
    """
    return _cosine(bilinear_dot(u, v), formal_norm_sq(u), formal_norm_sq(v))[0]


def _cosine(dot, uu, vv) -> tuple:
    """(cosine, norm_u * norm_v) from the pairing u . v and the squared
    norms u . u and v . v; the isotropic rule of ``formal_cosine``."""
    norm_u = principal_sqrt(uu)
    if norm_u == 0:
        raise IsotropicVectorError("first vector is isotropic (formal norm 0)")
    norm_v = principal_sqrt(vv)
    if norm_v == 0:
        raise IsotropicVectorError("second vector is isotropic (formal norm 0)")
    norms = norm_u * norm_v
    return dot / norms, norms


def _area_from_pair(u, v) -> complex:
    """Formal area of the triangle spanned by the sides u and v."""
    gram = formal_norm_sq(u) * formal_norm_sq(v) - bilinear_dot(u, v) ** 2
    return principal_sqrt(gram) / 2


def triangle_area(a, b, c) -> complex:
    """Formal area principal_sqrt(|AB|^2 |AC|^2 - (AB . AC)^2) / 2."""
    return _area_from_pair(_side(a, b), _side(a, c))


@dataclass(frozen=True)
class AppendixCheck:
    """One recomputed golden quantity: example number, quantity name, the
    recomputed and expected values, |difference| relative to the expected
    scale, and a pass flag."""

    example: int
    quantity: str
    computed: complex
    expected: complex
    residual: float
    ok: bool


# Golden worked examples: three points each, with every published quantity.
# Expected dots and squared norms are exact Gaussian integers; expected areas
# are coef * principal_sqrt(radicand) with exact integer radicands.
_I = 1j
APPENDIX_POINTS = {
    1: (
        (1 + _I, 3),
        (-_I, 2 * _I),
        (1, -_I),
    ),
    2: (
        (1 + _I, 1 - _I, 2 * _I),
        (1 - _I, 1 + _I, -2 * _I),
        (1, 0, _I),
    ),
    3: (
        (8 * _I, 14, 8 - _I, 1),
        (6, 15 * _I, 17, -8),
        (3 - _I, 10 + 7 * _I, 11, 3 * _I),
    ),
}

APPENDIX_EXPECTED = {
    1: {
        "ab_sq": 2 - 8j,
        "ac_sq": 7 + 6j,
        "bc_sq": -9 + 2j,
        "cos_lhs_ab_ac": 9 - 2j,
        "dot_ab_ac": 9 - 2j,
        "cos_lhs_ac_bc": -2 + 8j,
        "dot_ac_bc": -2 + 8j,
        "area": (0.5, -15 - 8j),
        "area_alt": (0.5, -15 - 8j),
    },
    2: {
        "ab_sq": -24 + 0j,
        "ac_sq": -2 - 2j,
        "bc_sq": -10 + 2j,
        "cos_lhs_ab_ac": -8 - 2j,
        "dot_ab_ac": -8 - 2j,
        "cos_lhs_ac_bc": 6 + 0j,
        "dot_ac_bc": 6 + 0j,
        "area": (1.0, -3 + 4j),
        "area_alt": (1.0, -3 + 4j),
    },
    3: {
        "ab_sq": 104 - 498j,
        "ac_sq": -105 - 110j,
        "bc_sq": 135 - 106j,
        "cos_lhs_ab_ac": -68 - 251j,
        "dot_ab_ac": -68 - 251j,
        "cos_lhs_ac_bc": -37 + 141j,
        "dot_ac_bc": -37 + 141j,
        "area": (0.5, -7323 + 6714j),
        "area_alt": (0.5, -7323 + 6714j),
    },
}

_REL_TOL = 1e-12


def _expected_value(spec) -> complex:
    if isinstance(spec, tuple):
        coef, radicand = spec
        return coef * principal_sqrt(radicand)
    return complex(spec)


def verify_appendix() -> list[AppendixCheck]:
    """Recompute every golden example quantity and compare to the table.

    Residuals are |computed - expected| / max(1, |expected|) and must stay
    within 1e-12 for `ok`.
    """
    checks = []
    for example, (a, b, c) in APPENDIX_POINTS.items():
        ab, ac, bc = _side(a, b), _side(a, c), _side(b, c)
        lhs_a, dot_a, _ = cosine_theorem_check(a, b, c)
        # At vertex C: CA . CB equals AC . BC (both sides negated).
        lhs_c, dot_c, _ = cosine_theorem_check(c, a, b)
        computed = {
            "ab_sq": formal_norm_sq(ab),
            "ac_sq": formal_norm_sq(ac),
            "bc_sq": formal_norm_sq(bc),
            "cos_lhs_ab_ac": lhs_a,
            "dot_ab_ac": dot_a,
            "cos_lhs_ac_bc": lhs_c,
            "dot_ac_bc": dot_c,
            "area": triangle_area(a, b, c),
            "area_alt": _area_from_pair(ac, bc),
        }
        for quantity, got in computed.items():
            want = _expected_value(APPENDIX_EXPECTED[example][quantity])
            residual = abs(got - want) / max(1.0, abs(want))
            checks.append(
                AppendixCheck(
                    example=example,
                    quantity=quantity,
                    computed=got,
                    expected=want,
                    residual=residual,
                    ok=residual <= _REL_TOL,
                )
            )
    return checks
