"""Unconjugated bilinear geometry: golden worked examples and identities.

The golden table's dots and squared norms are Gaussian integers, so the
float recomputation must match them exactly; areas compare against
coef * principal_sqrt(integer radicand).  The cosine-theorem and Gram
relations are polynomial identities, so random triangles of any dimension
must satisfy them to rounding.
"""

import ast
import cmath
import importlib
import pkgutil
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

import lseries_lab
from lseries_lab.cgeom import (
    APPENDIX_EXPECTED,
    APPENDIX_POINTS,
    DimensionMismatchError,
    bilinear_dot,
    cosine_theorem_check,
    formal_cosine,
    formal_norm,
    formal_norm_sq,
    principal_sqrt,
    triangle_area,
    verify_appendix,
)

# Golden values for the three worked examples, frozen as exact complexes.
EX1_EXPECT = {
    "ab_sq": 2 - 8j,
    "ac_sq": 7 + 6j,
    "bc_sq": -9 + 2j,
    "dot_ab_ac": 9 - 2j,
    "dot_ac_bc": -2 + 8j,
    "area_radicand": -15 - 8j,
    "area_coef": 0.5,
}
EX2_EXPECT = {
    "ab_sq": -24 + 0j,
    "ac_sq": -2 - 2j,
    "bc_sq": -10 + 2j,
    "dot_ab_ac": -8 - 2j,
    "dot_ac_bc": 6 + 0j,
    "area_radicand": -3 + 4j,
    "area_coef": 1.0,
}
EX3_EXPECT = {
    "ab_sq": 104 - 498j,
    "ac_sq": -105 - 110j,
    "bc_sq": 135 - 106j,
    "dot_ab_ac": -68 - 251j,
    "dot_ac_bc": -37 + 141j,
    "area_radicand": -7323 + 6714j,
    "area_coef": 0.5,
}


complex_nums = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def vectors(dim):
    return st.lists(complex_nums, min_size=dim, max_size=dim).map(tuple)


def _minus(b, a):
    """b - a componentwise, for vectors held as plain tuples."""
    return tuple(y - x for y, x in zip(b, a))


triangles = st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.tuples(vectors(d), vectors(d), vectors(d))
)


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert principal_sqrt(4) == 2

    def test_negative_real_maps_to_positive_imaginary(self):
        assert principal_sqrt(-1) == 1j
        assert principal_sqrt(complex(-4, -0.0)) == 2j  # signed zero normalized

    def test_zero(self):
        assert principal_sqrt(0) == 0

    @given(complex_nums)
    @settings(max_examples=300, derandomize=True)
    def test_square_recovers_value_and_branch(self, z):
        r = principal_sqrt(z)
        assert abs(r * r - z) <= 1e-12 * max(1.0, abs(z))
        # right-half-plane branch (boundary points go to the upper half)
        if r != 0:
            assert r.real > 0 or (r.real == 0 and r.imag > 0)


class TestDotAndNorm:
    def test_unconjugated(self):
        u = (1j, 1)
        assert bilinear_dot(u, u) == 0  # (i)^2 + 1^2, no conjugation
        assert formal_norm_sq((1j,)) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bilinear_dot((1, 2), (1, 2, 3))
        # points of different dimensions: the sides cannot be formed
        for points in [((1,), (1, 2), (0, 0)), ((1, 2), (3, 4), (5,))]:
            with pytest.raises(DimensionMismatchError):
                triangle_area(*points)
            with pytest.raises(DimensionMismatchError):
                cosine_theorem_check(*points)

    @given(triangles)
    @settings(max_examples=200, derandomize=True)
    def test_dot_symmetric_and_bilinear(self, tri):
        a, b, c = tri
        u, v = _minus(b, a), _minus(c, a)
        assert bilinear_dot(u, v) == bilinear_dot(v, u)

    @given(triangles)
    @settings(max_examples=200, derandomize=True)
    def test_norm_and_cosine_are_built_on_the_pairing(self, tri):
        u, v, _ = tri
        assert _bits(formal_norm(u)) == _bits(principal_sqrt(bilinear_dot(u, u)))
        norm_u, norm_v = formal_norm(u), formal_norm(v)
        assume(norm_u != 0 and norm_v != 0)
        want = bilinear_dot(u, v) / (norm_u * norm_v)
        assert _bits(formal_cosine(u, v)) == _bits(want)


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


class TestVectorForms:
    # mixed int/complex entries; no side of this triangle is isotropic
    POINTS = ((0, 1j, 2), (1, 0, 1 + 1j), (2j, 3, 0))

    @pytest.mark.parametrize("form", [tuple, list])
    def test_every_function_takes_tuples_and_lists(self, form):
        a, b, c = (form(p) for p in self.POINTS)
        ref_a, ref_b, ref_c = (tuple(complex(x) for x in p) for p in self.POINTS)
        calls = [
            (bilinear_dot, (a, b), (ref_a, ref_b)),
            (formal_norm_sq, (a,), (ref_a,)),
            (formal_norm, (a,), (ref_a,)),
            (formal_cosine, (a, b), (ref_a, ref_b)),
            (cosine_theorem_check, (a, b, c), (ref_a, ref_b, ref_c)),
            (triangle_area, (a, b, c), (ref_a, ref_b, ref_c)),
        ]
        for func, args, ref_args in calls:
            assert func(*args) == func(*ref_args), func.__name__


def test_every_exported_name_exists():
    # a deleted name still listed in __all__ or imported by the package
    for info in pkgutil.iter_modules(lseries_lab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lseries_lab.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    with open(lseries_lab.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]
    assert imported
    assert [name for name in imported if not hasattr(lseries_lab, name)] == []


def _rel(x, scale):
    return abs(x) / max(1.0, abs(scale))


class TestIdentities:
    @given(triangles)
    @settings(max_examples=500, derandomize=True)
    def test_cosine_theorem_identity(self, tri):
        a, b, c = tri
        lhs_half, dot, residual = cosine_theorem_check(a, b, c)
        assert _rel(residual, dot) <= 1e-12

    @given(triangles)
    @settings(max_examples=500, derandomize=True)
    def test_gram_identity(self, tri):
        a, b, c = tri
        ab, ac = _minus(b, a), _minus(c, a)
        dot = bilinear_dot(ab, ac)
        area = triangle_area(a, b, c)
        lhs = 4 * area * area + dot**2
        rhs = formal_norm_sq(ab) * formal_norm_sq(ac)
        # the rounding floor scales with |dot|^2 as well as |rhs| (e.g. an
        # isotropic AB zeroes rhs without shrinking the dot)
        scale = max(1.0, abs(rhs), abs(dot) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(triangles)
    @settings(max_examples=300, derandomize=True)
    def test_squared_area_symmetric_between_vertex_forms(self, tri):
        # Compare the Gram radicands (4*area^2); taking the square root
        # would amplify rounding for near-degenerate triangles.
        a, b, c = tri
        ab, ac, bc = _minus(b, a), _minus(c, a), _minus(c, b)
        gram_a = formal_norm_sq(ab) * formal_norm_sq(ac) - bilinear_dot(ab, ac) ** 2
        gram_c = formal_norm_sq(ac) * formal_norm_sq(bc) - bilinear_dot(ac, bc) ** 2
        scale = max(
            abs(formal_norm_sq(ab) * formal_norm_sq(ac)),
            abs(formal_norm_sq(ac) * formal_norm_sq(bc)),
        )
        assert _rel(gram_a - gram_c, scale) <= 1e-12


class TestGoldenExamples:
    @pytest.mark.parametrize(
        "example,expect", [(1, EX1_EXPECT), (2, EX2_EXPECT), (3, EX3_EXPECT)]
    )
    def test_exact_dots_and_norms(self, example, expect):
        a, b, c = APPENDIX_POINTS[example]
        ab, ac, bc = _minus(b, a), _minus(c, a), _minus(c, b)
        # Gaussian-integer inputs: float arithmetic is exact here
        assert formal_norm_sq(ab) == expect["ab_sq"]
        assert formal_norm_sq(ac) == expect["ac_sq"]
        assert formal_norm_sq(bc) == expect["bc_sq"]
        assert bilinear_dot(ab, ac) == expect["dot_ab_ac"]
        assert bilinear_dot(ac, bc) == expect["dot_ac_bc"]

    @pytest.mark.parametrize(
        "example,expect", [(1, EX1_EXPECT), (2, EX2_EXPECT), (3, EX3_EXPECT)]
    )
    def test_cosine_theorem_halves(self, example, expect):
        a, b, c = APPENDIX_POINTS[example]
        lhs_half, dot, residual = cosine_theorem_check(a, b, c)
        assert lhs_half == expect["dot_ab_ac"]
        assert residual == 0.0

    @pytest.mark.parametrize(
        "example,expect", [(1, EX1_EXPECT), (2, EX2_EXPECT), (3, EX3_EXPECT)]
    )
    def test_areas_match_printed_radicals(self, example, expect):
        a, b, c = APPENDIX_POINTS[example]
        want = expect["area_coef"] * principal_sqrt(expect["area_radicand"])
        got = triangle_area(a, b, c)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_report_bundles_everything(self):
        # example 2's triangle data, each piece from its own function
        a, b, c = APPENDIX_POINTS[2]
        ab, ac, bc = _minus(b, a), _minus(c, a), _minus(c, b)
        assert formal_norm_sq(ab) == -24
        assert bilinear_dot(ac, bc) == 6
        # cos(AC, BC) = 6 / (sqrt(-2-2i) sqrt(-10+2i))
        denom = principal_sqrt(-2 - 2j) * principal_sqrt(-10 + 2j)
        assert abs(formal_cosine(ac, bc) - 6 / denom) < 1e-14
        area, dot_ab_ac = triangle_area(a, b, c), bilinear_dot(ab, ac)
        assert abs(4 * area**2 + dot_ab_ac**2 - formal_norm_sq(ab) * formal_norm_sq(ac)) < 1e-12


class TestVerifyAppendix:
    def test_all_pass(self):
        checks = verify_appendix()
        assert len(checks) == 27  # 9 quantities x 3 examples
        assert all(c.ok for c in checks)
        assert max(c.residual for c in checks) == 0.0

    def test_quantities_cover_every_published_value(self):
        names = {c.quantity for c in verify_appendix()}
        assert names == {
            "ab_sq",
            "ac_sq",
            "bc_sq",
            "cos_lhs_ab_ac",
            "dot_ab_ac",
            "cos_lhs_ac_bc",
            "dot_ac_bc",
            "area",
            "area_alt",
        }

    def test_corrupted_expected_table_fails(self, monkeypatch):
        corrupted = {k: dict(v) for k, v in APPENDIX_EXPECTED.items()}
        corrupted[1]["dot_ab_ac"] = 9 + 2j  # wrong sign on the imaginary part
        monkeypatch.setattr("lseries_lab.cgeom.APPENDIX_EXPECTED", corrupted)
        checks = verify_appendix()
        bad = [c for c in checks if not c.ok]
        assert len(bad) == 1
        assert (bad[0].example, bad[0].quantity) == (1, "dot_ab_ac")
