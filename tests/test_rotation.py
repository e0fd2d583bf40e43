"""Step profiles, revolution volumes, barycenters, and the Pappus identity.

Hand-computed oracles:

  heights (1, 1/2) -> area 3/2, moment 1/2*1 + 3/2*1/2 = 5/4, square sum 5/4,
    so xi = (5/4)/(3/2) = 5/6 and eta = (5/4)/2/(3/2) = 5/12;
  heights (1, -1) -> area exactly zero (no barycenter);
  chi mod 4 at s = 0 with N = 4 -> heights (1, 0, -1, 0), area zero;
  chi mod 4 at s = 1/2 with N = 4 -> S = 1 - 1/sqrt(3),
    W = sum over odd n <= 4 of 1/n = 1 + 1/3 = 4/3.

The closed-form barycenter is checked against a test-local oracle: midpoint
quadrature of the defining integrals over the step function (panels aligned
to the unit steps integrate the step data exactly).
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lseries_lab import lseries, rotation
from lseries_lab.audit import run_audit
from lseries_lab.characters import enumerate_characters, enumerate_real_characters
from lseries_lab.lseries import ContinuationRangeError, partial_sum
from lseries_lab.rotation import (
    PappusReport,
    ZeroAreaError,
    barycenter,
    pappus_check,
    step_profile,
)

CHI0_1 = enumerate_real_characters(1)[0]
CHI3 = enumerate_real_characters(3)[1]
CHI4 = enumerate_real_characters(4)[1]


def make_profile(heights):
    return tuple(complex(h) for h in heights)


def _midpoint_quadrature(f, a, b, panels):
    h = (b - a) / panels
    return sum((f(a + (i + 0.5) * h) for i in range(panels)), 0j) * h


def barycenter_quadrature(profile):
    """(xi, eta) = (integral(z f) / integral(f), integral(f^2) / (2 integral(f)))
    by midpoint quadrature of the right-open step function f."""
    n = len(profile)

    def height(z):
        return profile[math.floor(z)]

    area = _midpoint_quadrature(height, 0.0, float(n), n)
    if area == 0:
        raise ZeroAreaError("step profile has total area exactly zero")
    moment = _midpoint_quadrature(lambda z: z * height(z), 0.0, float(n), n)
    square = _midpoint_quadrature(lambda z: height(z) ** 2, 0.0, float(n), n)
    return moment / area, square / (2 * area)


def barycenter_by_whole_sums(heights):
    """The barycenter closed forms as three plain sums over all the heights:
    a running sum must give the same floats, bit for bit."""
    area = sum(heights, 0j)
    if area == 0:
        raise ZeroAreaError("step profile has total area exactly zero")
    moment = sum(((n - 0.5) * f for n, f in enumerate(heights, start=1)), 0j)
    square = sum((f * f for f in heights), 0j)
    return moment / area, square / (2 * area)


def seeded_profiles(seed=20261019, count=30):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 300)
        yield tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) / k for k in range(1, n + 1))


class TestProfileGeometry:
    def test_heights_are_series_terms(self):
        profile = step_profile(CHI4, 0.5, 6)
        assert type(profile) is tuple
        want = (1.0, 0.0, -(3.0**-0.5), 0.0, 5.0**-0.5, 0.0)
        for got, expected in zip(profile, want):
            assert abs(got - expected) < 1e-15
        assert barycenter(list(profile)) == barycenter(profile)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            step_profile(CHI4, 0.5, 0)

    def test_complex_s_heights_match_power(self):
        s = complex(0.5, 2.0)
        profile = step_profile(CHI3, s, 12)
        for n in range(1, 13):
            want = CHI3.value_complex(n) * n ** (-s)
            assert abs(profile[n - 1] - want) < 1e-14


class TestBarycenter:
    def test_two_step_hand_example(self):
        profile = make_profile([1.0, 0.5])
        xi, eta = barycenter(profile)
        assert abs(xi - 5.0 / 6.0) < 1e-14
        assert abs(eta - 5.0 / 12.0) < 1e-14

    def test_quadrature_path_agrees_on_hand_example(self):
        profile = make_profile([1.0, 0.5])
        xi_q, eta_q = barycenter_quadrature(profile)
        assert abs(xi_q - 5.0 / 6.0) < 1e-14
        assert abs(eta_q - 5.0 / 12.0) < 1e-14

    def test_single_rectangle(self):
        xi, eta = barycenter(make_profile([3.0]))
        assert abs(xi - 0.5) < 1e-15
        assert abs(eta - 1.5) < 1e-15

    def test_zero_area_raises(self):
        with pytest.raises(ZeroAreaError):
            barycenter(make_profile([1.0, -1.0]))
        with pytest.raises(ZeroAreaError):
            barycenter_quadrature(make_profile([1.0, -1.0]))

    def test_chi4_at_s_zero_has_zero_area_every_full_period(self):
        profile = step_profile(CHI4, 0.0, 4)
        with pytest.raises(ZeroAreaError):
            barycenter(profile)

    def test_complex_heights(self):
        profile = make_profile([1.0 + 1.0j, -0.5j])
        xi, eta = barycenter(profile)
        area = 1.0 + 0.5j
        assert abs(xi - (0.5 * (1 + 1j) + 1.5 * (-0.5j)) / area) < 1e-14
        assert abs(eta - ((1 + 1j) ** 2 + (-0.5j) ** 2) / (2 * area)) < 1e-14

    @given(
        st.lists(
            st.complex_numbers(
                min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, derandomize=True)
    def test_closed_form_equals_quadrature(self, heights):
        profile = make_profile(heights)
        try:
            xi, eta = barycenter(profile)
        except ZeroAreaError:
            return
        xi_q, eta_q = barycenter_quadrature(profile)
        scale = max(1.0, abs(xi), abs(eta))
        assert abs(xi - xi_q) <= 1e-10 * scale
        assert abs(eta - eta_q) <= 1e-10 * scale


class TestRunningSumsMatchWholeSums:
    def test_barycenter_by_repr(self):
        for heights in seeded_profiles():
            assert repr(barycenter(heights)) == repr(barycenter_by_whole_sums(heights))

    def test_zero_area_raises_on_both_sides(self):
        heights = next(seeded_profiles(seed=7, count=1))
        heights += (-sum(heights, 0j),)  # the running area ends at exactly 0
        for function in (barycenter, barycenter_by_whole_sums):
            with pytest.raises(ZeroAreaError):
                function(heights)

    def test_pappus_check_fields_by_repr(self):
        rng = random.Random(20261019)
        for chi in enumerate_characters(5) + enumerate_characters(12):
            s = complex(rng.uniform(0.1, 2.0), rng.choice([0.0, rng.uniform(-30.0, 30.0)]))
            n_rects = rng.randint(1, 400)
            report = pappus_check(chi, s, n_rects)
            heights = step_profile(chi, s, n_rects)
            area = sum(heights, 0j)
            xi, eta = barycenter_by_whole_sums(heights)
            residual = abs(report.volume - 2 * math.pi * eta * area)
            assert repr((report.profile_area, report.xi, report.eta, report.residual)) == repr(
                (area, xi, eta, residual)
            )


class TestPappus:
    def test_identity_for_chi4_spread(self):
        for s in (0.5, 0.7, 2.0, complex(0.5, 3.0)):
            for n_rects in (1, 3, 10, 250):
                report = pappus_check(CHI4, s, n_rects)
                assert report.relative_residual <= 1e-12

    def test_identity_across_characters(self):
        for q in (1, 3, 5, 8):
            for chi in enumerate_characters(q):
                report = pappus_check(chi, 0.6, 97)
                assert report.relative_residual <= 1e-12

    def test_zero_area_propagates(self):
        with pytest.raises(ZeroAreaError):
            pappus_check(CHI4, 0.0, 4)

    def test_term_past_the_float_range_is_a_domain_error(self):
        # the volume's squared terms n^300 leave the float range at n = 11
        with pytest.raises(ContinuationRangeError, match=r"at s = \(-150\+0j\).* n = 11, m = 2"):
            pappus_check(CHI4, -150, 100)

    def test_overflow_stops_before_the_profile_is_built(self, monkeypatch):
        # chi^2 n^-2s leaves the float range first, at n = 7133 for s = -40,
        # and is walked first: no profile of 100000 heights is built
        items = {}
        real_terms = lseries._terms

        def counting_terms(chi, s, stop, m=1):
            for term in real_terms(chi, s, stop, m):
                items[s, m] = items.get((s, m), 0) + 1
                yield term

        profiles = []
        real_profile = rotation.step_profile

        def counting_profile(*args):
            profiles.append(args)
            return real_profile(*args)

        for module in (lseries, rotation):
            monkeypatch.setattr(module, "_terms", counting_terms)
        monkeypatch.setattr(rotation, "step_profile", counting_profile)
        with pytest.raises(ContinuationRangeError, match="n = 7133, m = 2"):
            pappus_check(CHI4, -40, 100000)
        assert items == {(-40.0 + 0j, 2): 7132}
        assert profiles == []

    @pytest.mark.parametrize("n_rects", [0, -1])
    def test_no_rectangle_is_rejected_by_count(self, n_rects):
        with pytest.raises(ValueError, match=f"need at least one rectangle, got {n_rects}"):
            pappus_check(CHI4, 0.5, n_rects)

    def test_report_fields_consistent(self):
        report = pappus_check(CHI4, 0.7, 100)
        assert isinstance(report, PappusReport)
        assert report.profile_area == partial_sum(CHI4, 0.7, 100)
        want_volume = math.pi * sum(n ** (-1.4) for n in range(1, 101) if n % 2 == 1)
        assert abs(report.volume - want_volume) < 1e-12
        assert report.residual == abs(
            report.volume - 2 * math.pi * report.eta * report.profile_area
        )


def positivity_evidence(chi, s, truncations):
    """The TRANSFORMED_EQ_POSITIVITY claim of the audit: its verdict and the
    W_N = sum(chi(n)^2 * n^-2 sigma) of each truncation."""
    claims = run_audit(chi, s, truncations, grid_step=0.2)
    (claim,) = [c for c in claims if c.claim_id == "TRANSFORMED_EQ_POSITIVITY"]
    return claim.verdict, [w for _, w in claim.evidence]


class TestTransformedEquation:
    def test_chi4_hand_values(self):
        assert abs(partial_sum(CHI4, 0.5, 4) - (1.0 - 3.0**-0.5)) < 1e-15
        _, (w_sum,) = positivity_evidence(CHI4, 0.5, [4])
        assert abs(w_sum - 4.0 / 3.0) < 1e-15

    def test_w_positive_and_nondecreasing_for_real_chi(self):
        verdict, ws = positivity_evidence(CHI3, 0.35, [1, 2, 5, 20, 100])
        assert verdict == "positive-definite"
        assert all(w > 0.0 for w in ws)
        assert ws == sorted(ws)

    def test_w_matches_doubled_s_truncation(self):
        # chi^2 is principal for a real character, so W_N is the principal
        # truncation at 2s restricted to units: check against partial_sum of
        # the principal character at 2s.
        chi0_4 = enumerate_real_characters(4)[0]
        _, (w_sum,) = positivity_evidence(CHI4, 0.8, [333])
        assert abs(w_sum - partial_sum(chi0_4, 1.6, 333)) < 1e-13
