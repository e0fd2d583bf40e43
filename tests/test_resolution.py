"""Factor-vector resolutions: exact factorization, norms, cosines, phase sums.

Hand-computed oracle values for the chi mod 4 truncation at N = 4:

  amplitude-carrying vector at sigma = 1/2:  (1, 0, -1/sqrt(3), 0)
    -> squared formal norm 1 + 1/3 = 4/3, norm 2/sqrt(3)
  bare-amplitude vector at sigma = 1/2:      (1, 1/sqrt(2), 1/sqrt(3), 1/2)
    -> squared formal norm 1 + 1/2 + 1/3 + 1/4 = 25/12, norm 5/sqrt(12)
  character-phase vector at t = 0:           (1, 0, -1, 0)
    -> squared formal norm 2, norm sqrt(2)

The frozen phase-sum pair below is mpmath at 30 dps for t = 1, N = 2.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lseries_lab.cgeom import IsotropicVectorError, bilinear_dot, formal_cosine, formal_norm
from lseries_lab.characters import enumerate_characters, enumerate_real_characters
from lseries_lab.lseries import partial_sum
from lseries_lab.resolution import AMPLITUDE_CHI, PHASE_CHI, VARIANTS, build_vectors, phase_series_sums

CHI0_1 = enumerate_real_characters(1)[0]
CHI4 = enumerate_real_characters(4)[1]

PHASE_SUMS_T1_N2 = (1.7692389013639721266, 0.63896127631363480115)


class TestBuildVectors:
    def test_rejects_empty_and_unknown_variant(self):
        with pytest.raises(ValueError):
            build_vectors(CHI4, 0.5, 0, AMPLITUDE_CHI)
        with pytest.raises(ValueError):
            build_vectors(CHI4, 0.5, 4, "both_chi")

    def test_records_inputs(self):
        vectors = build_vectors(CHI4, complex(0.5, 2.0), 6, PHASE_CHI)
        assert [type(v) for v in (vectors, *vectors)] == [tuple] * 3
        a_vec, p_vec = vectors
        assert len(a_vec) == len(p_vec) == 6

    def test_amplitude_variant_entries(self):
        a_vec, p_vec = build_vectors(CHI4, 0.5, 4, AMPLITUDE_CHI)
        assert a_vec == (
            complex(1.0, 0.0),
            0j,
            complex(-(3.0**-0.5), 0.0),
            0j,
        )
        assert p_vec == (complex(1, 0),) * 4  # bare phase at t = 0

    def test_phase_variant_entries(self):
        a_vec, p_vec = build_vectors(CHI4, 0.5, 4, PHASE_CHI)
        assert a_vec == (
            complex(1.0, 0.0),
            complex(2.0**-0.5, 0.0),
            complex(3.0**-0.5, 0.0),
            complex(0.5, 0.0),
        )
        assert p_vec == (complex(1, 0), 0j, complex(-1, 0), 0j)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("s", [0.5, 2.0, complex(0.5, 14.1)])
    def test_componentwise_product_is_the_series_term(self, variant, s):
        for chi in enumerate_characters(5):
            for k, (a, p) in enumerate(zip(*build_vectors(chi, s, 30, variant))):
                n = k + 1
                want = chi.value_complex(n) * n ** (-complex(s))
                assert abs(a * p - want) <= 1e-14 * max(1.0, abs(want))


class TestFormalNorm:
    def test_euclidean_case(self):
        assert formal_norm([3.0, 4.0]) == 5.0

    def test_isotropic_vector_has_zero_norm(self):
        assert formal_norm([1.0, 1j]) == 0

    def test_negative_square_goes_to_positive_imaginary_axis(self):
        assert formal_norm([1j]) == 1j

    def test_hand_computed_truncation_norms(self):
        a_vec, p_vec = build_vectors(CHI4, 0.5, 4, AMPLITUDE_CHI)
        assert abs(formal_norm(a_vec) - 2.0 / math.sqrt(3.0)) < 1e-15
        assert abs(formal_norm(p_vec) - 2.0) < 1e-15

        a_vec, p_vec = build_vectors(CHI4, 0.5, 4, PHASE_CHI)
        assert abs(formal_norm(a_vec) - 5.0 / math.sqrt(12.0)) < 1e-15
        assert abs(formal_norm(p_vec) - math.sqrt(2.0)) < 1e-15


class TestFormalCosine:
    def test_parallel_vectors(self):
        u = [1.0, 2.0, -1.0]
        v = [3.0, 6.0, -3.0]
        assert abs(formal_cosine(u, v) - 1.0) < 1e-15

    def test_orthogonal_vectors(self):
        assert formal_cosine([1.0, 0.0], [0.0, 1.0]) == 0

    def test_isotropic_raises_even_though_vector_is_nonzero(self):
        with pytest.raises(IsotropicVectorError):
            formal_cosine([1.0, 1j], [1.0, 0.0])
        with pytest.raises(IsotropicVectorError):
            formal_cosine([1.0, 0.0], [1.0, 1j])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            formal_cosine([1.0], [1.0, 2.0])

    def test_cosine_of_factor_pair_is_well_defined_generically(self):
        c = formal_cosine(*build_vectors(CHI4, complex(0.5, 1.0), 16, AMPLITUDE_CHI))
        assert math.isfinite(c.real) and math.isfinite(c.imag)


def reconstruct(chi, s, n_terms, variant):
    """(lhs, rhs, residual): the bilinear dot of the factor vectors against
    the direct truncation."""
    lhs = bilinear_dot(*build_vectors(chi, s, n_terms, variant))
    rhs = partial_sum(chi, s, n_terms)
    return lhs, rhs, abs(lhs - rhs)


class TestReconstruction:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_real_axis_real_character_is_bitwise_exact(self, variant):
        lhs, rhs, residual = reconstruct(CHI4, 0.5, 1000, variant)
        assert residual == 0.0
        assert lhs == rhs

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("q", [1, 3, 4, 5, 8])
    @pytest.mark.parametrize("s", [0.5, 2.0, complex(0.5, 14.1), complex(2.0, -3.0)])
    def test_residual_at_rounding_level(self, variant, q, s):
        for chi in enumerate_characters(q):
            for n_terms in (1, 10, 257):
                lhs, rhs, residual = reconstruct(chi, s, n_terms, variant)
                assert residual <= 1e-12 * max(1.0, abs(rhs))

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_residual_property(self, sigma, t, n_terms):
        s = complex(sigma, t)
        for variant in VARIANTS:
            lhs, rhs, residual = reconstruct(CHI4, s, n_terms, variant)
            assert residual <= 1e-12 * max(1.0, abs(rhs))


class TestPhaseSeriesSums:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            phase_series_sums(0.0, 0)

    @pytest.mark.parametrize("n_terms", [1, 10, 100, 1000])
    def test_t_zero_counts_terms_exactly(self, n_terms):
        assert phase_series_sums(0.0, n_terms) == (float(n_terms), 0.0)

    def test_frozen_spot(self):
        cos_sum, sin_sum = phase_series_sums(1.0, 2)
        assert abs(cos_sum - PHASE_SUMS_T1_N2[0]) < 1e-15
        assert abs(sin_sum - PHASE_SUMS_T1_N2[1]) < 1e-15

    @pytest.mark.parametrize("t", [0.5, 1.0, -2.75])
    def test_matches_sigma_zero_truncation(self, t):
        # sum(n^-it) over the trivial character = cos_sum - i * sin_sum
        n_terms = 64
        cos_sum, sin_sum = phase_series_sums(t, n_terms)
        series = partial_sum(CHI0_1, complex(0.0, t), n_terms)
        assert abs(series - complex(cos_sum, -sin_sum)) < 1e-12
