"""Truncated sums, Hurwitz-zeta continuation, L-evaluation, and zero scans.

Oracles:
  * frozen 20-digit constants computed once with mpmath at 30 dps and
    pinned below (closed forms where they exist);
  * live mpmath cross-checks on a seeded random sample of (s, x) points;
  * a brute-force complex power sum for ``partial_sum``;
  * the integral tail bound |sum_{n>N} chi(n) n^-s| <= N^(1-sigma)/(sigma-1)
    linking ``evaluate`` to ``partial_sum`` for sigma > 1;
  * the class number formula L(1, chi_d) = 2 pi h(d) / (w sqrt|d|) for
    imaginary quadratic fields, h(d) counted by reduced forms.
"""

import cmath
import math
import operator
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import mpmath
import pytest

from lseries_lab import run_audit
from lseries_lab import lseries as lseries_mod
from lseries_lab import characters as characters_mod
from lseries_lab.characters import (
    DirichletCharacter,
    _to_number,
    enumerate_characters,
    enumerate_real_characters,
    kronecker_symbol,
)
from lseries_lab.lseries import (
    ContinuationRangeError,
    LEvaluation,
    NonRealCharacterError,
    PoleError,
    ScanGridError,
    SignChangeBracket,
    _bisect_sign_change,
    _hurwitz,
    _prefix_sums,
    _residue_table,
    _running_sums,
    _scan_grid,
    _terms,
    evaluate,
    hurwitz_zeta,
    partial_sum,
    scan_zeros,
)
from lseries_lab.resolution import VARIANTS, build_vectors
from lseries_lab.rotation import pappus_check

# Frozen with mpmath at 30 dps.
ZETA_HALF = -1.4603545088095868129
PI2_OVER_6 = 1.6449340668482264365
PI2_OVER_2 = 4.9348022005446793094
PI_OVER_4 = 0.78539816339744830962
CATALAN = 0.91596559417721901505
PI_OVER_3SQRT3 = 0.60459978807807261686
HURWITZ_SPOTS = [
    # (s, x, frozen zeta(s, x))
    (2.0, 0.25, 17.197329154507110739 + 0j),
    (0.25, 0.7, -0.44334612182210816688 + 0j),
    (complex(0.5, 1.5), 0.3, -0.43282307215597124533 + 1.1259907364609443761j),
    (complex(-0.5, 2.0), 1.0, 0.2280949717165263298 - 0.14452917173371359642j),
    (complex(2.5, -1.0), 0.9, 1.4668602240047919294 + 0.12931524764710373424j),
]

CHI0_1 = enumerate_real_characters(1)[0]
CHI3 = enumerate_real_characters(3)[1]
CHI4 = enumerate_real_characters(4)[1]
CHI0_6 = enumerate_real_characters(6)[0]
# sigma >= 1000 with |t| = 1e308: the plan is small, but a power's phase
# t log(x + q k) (or t log q) overflows, which libm reports as a domain error
FAR_POINTS = [complex(sigma, t) for sigma in (1e3, 1e30, 1e300, 1e308) for t in (1e308, -1e308)]


def brute_partial_sum(chi, s, n_terms):
    s = complex(s)
    return sum(
        chi.value_complex(n) * n ** (-s)
        for n in range(1, n_terms + 1)
        if chi.values[n % chi.modulus] != 0
    )


class TestPartialSum:
    def test_small_exact(self):
        # 1 - 1/3 for chi mod 4 at s = 1, four terms
        assert partial_sum(CHI4, 1.0, 4) == complex(1 - 1 / 3, 0.0)

    def test_rejects_empty_sum(self):
        with pytest.raises(ValueError):
            partial_sum(CHI4, 2.0, 0)

    @pytest.mark.parametrize("s", [2.0, 0.5, complex(0.5, 1.0), complex(2.0, -3.0)])
    def test_matches_brute_force_complex_powers(self, s):
        for chi in enumerate_characters(5) + enumerate_characters(8):
            ours = partial_sum(chi, s, 200)
            brute = brute_partial_sum(chi, s, 200)
            assert abs(ours - brute) <= 1e-12 * max(1.0, abs(brute))

    def test_accepts_lpoint_complex_and_float(self):
        want = partial_sum(CHI4, complex(0.5, 0.0), 50)
        assert partial_sum(CHI4, 0.5, 50) == want
        assert partial_sum(CHI4, complex(0.5, 0.0), 50) == want

    def test_real_character_real_axis_is_real(self):
        value = partial_sum(CHI3, 0.25, 777)
        assert value.imag == 0.0


class TestTermKernel:
    @staticmethod
    def exact_power(v, m):
        """chi(a)^m in the stored form, from the exponent's fraction of a turn."""
        if isinstance(v, int):
            return v**m
        turn = Fraction(v[1] * m, v[0]) % 1
        return 1 if turn == 0 else -1 if turn == Fraction(1, 2) else (turn.denominator, turn.numerator)

    def test_residue_table_is_value_complex_bit_for_bit(self):
        # moduli interleaved, so the kept map of one q never answers another
        for q in [13, 350, 13, 263, 1009, 263, *range(1, 120)]:
            group = enumerate_characters(q)
            for chi in group[:: max(1, len(group) // 16)]:
                for m in (1, 2, 4):
                    table = _residue_table(chi, m)
                    if m == 1:
                        want = [chi.value_complex(a) for a in range(q)]
                    else:
                        want = [complex(_to_number(self.exact_power(v, m))) for v in chi.values]
                    assert list(map(repr, map(complex, table))) == list(map(repr, want)), (q, m)

    def test_a_group_converts_each_root_of_unity_once(self, monkeypatch):
        # lambda(263) = 262 roots and the sentinel 0, each converted at most
        # once per modulus; one conversion per table entry would be about
        # 68,000 for the 262 characters mod 263
        calls = []
        real_to_number = characters_mod._to_number

        def counting_to_number(v):
            calls.append(v)
            return real_to_number(v)

        for module in (characters_mod, lseries_mod):  # wherever the name is bound
            monkeypatch.setattr(module, "_to_number", counting_to_number, raising=False)
        group = enumerate_characters(263)
        for chi in group:
            evaluate(chi, complex(0.5, 14.0))
        assert 0 < len(calls) == len(set(calls)) <= 263
        # the lvalues benchmark's order: a few characters, each at s = 1 and
        # two heights, from a cold memo
        lseries_mod._modulus.cache_clear()
        lseries_mod._residue_pass.cache_clear()
        calls.clear()
        for chi in group[1::33]:
            for s in (1, complex(0.5, 14.0), complex(0.5, 500.0)):
                evaluate(chi, s)
        assert len(group[1::33]) == 8
        assert 0 < len(calls) == len(set(calls)) <= 263

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("s", [0.5, complex(0.5, 3.0)])
    def test_powered_terms_match_brute_force_on_units(self, m, s):
        # the stream is dense: stop - 1 terms, exactly 0j off the units
        for chi in enumerate_characters(5) + enumerate_characters(12):
            terms = list(_terms(chi, complex(s), 40, m))
            assert len(terms) == 39
            for n, term in enumerate(terms, start=1):
                if chi.values[n % chi.modulus] == 0:
                    assert repr(term) == "0j"
                    continue
                want = chi.value_complex(n) ** m * n ** (-m * complex(s))
                assert abs(term - want) <= 1e-14

    def test_fourth_power_of_order_four_character_is_exact(self):
        for chi in enumerate_characters(5):
            assert _residue_table(chi, 4) == [0, 1, 1, 1, 1]

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("s", [0.5, complex(0.5, 3.0), complex(1.5, -7.0)])
    def test_running_sums_equal_a_fresh_walk_to_each_truncation(self, m, s):
        # bit for bit: continuing the previous sum performs the same float
        # additions, in the same order, as walking again from n = 1
        truncations = [1, 2, 12, 13, 100, 333]
        for chi in enumerate_characters(5) + enumerate_characters(12):
            want = []
            for stop in truncations:
                total = 0j
                for term in _terms(chi, complex(s), stop + 1, m):
                    total += term
                want.append(total)
            assert _running_sums(chi, complex(s), truncations, m) == want
            assert [_running_sums(chi, complex(s), [n], m)[0] for n in truncations] == want

    @pytest.mark.parametrize(
        "s,m,where",
        [
            (-400.0, 1, "the term n^(-m s) with n = 7, m = 1"),  # 7^400 > 1.8e308
            (complex(0.5, 1e308), 1, "the term n^(-m s) with n = 7, m = 1"),  # t log 7 > 1.8e308
            (complex(0.5, 1e308), 2, "-2s = (-1-infj)"),  # 2t is infinite
        ],
    )
    def test_term_past_the_float_range_is_a_domain_error_naming_the_point(self, s, m, where):
        with pytest.raises(ContinuationRangeError, match=re.escape(f"at s = {complex(s)}, {where}")):
            _running_sums(CHI4, complex(s), [10], m)

    def test_terms_match_the_hand_built_power_by_repr(self):
        # the oracle builds n^-s from its parts, n^-sigma (cos(t ln n) -
        # i sin(t ln n)); Python's complex power takes the same steps, so
        # every sum and vector made from the kernel is the same to the bit
        def oracle_terms(chi, s, stop, m):
            table = _residue_table(chi, m)
            sigma, t = m * s.real, m * s.imag
            for n in range(1, stop):
                v = table[n % chi.modulus]
                if v:
                    amp = n ** (-sigma)
                    if t:
                        angle = t * math.log(n)
                        amp = complex(amp * math.cos(angle), -amp * math.sin(angle))
                    yield n, v * amp

        rng = random.Random(20261019)
        for _ in range(60):
            chi = rng.choice(enumerate_characters(rng.randint(1, 30)))
            m = rng.choice([1, 2, 4])
            t = rng.choice([0.0, -0.0, rng.uniform(0.0, 1000.0), -rng.uniform(0.0, 1000.0)])
            s = complex(rng.uniform(-1.0, 3.0), t)
            n_terms = rng.randint(1, 3000)
            truncations = sorted({1, rng.randint(1, n_terms), n_terms})
            terms = dict(oracle_terms(chi, s, n_terms + 1, m))
            want, total = [], 0.0
            for n in range(1, n_terms + 1):
                if n in terms:
                    total += terms[n]
                if n in truncations:
                    want.append(complex(total))
            case = (chi.modulus, chi.values, m, s, n_terms)
            assert repr(_running_sums(chi, s, truncations, m)) == repr(want), case
            vec = tuple(terms.get(n, 0j) for n in range(1, n_terms + 1))
            assert repr(tuple(_terms(chi, s, n_terms + 1, m))) == repr(vec), case
            if m == 1:
                assert repr(partial_sum(chi, s, n_terms)) == repr(want[-1]), case

    def test_prefix_sums_are_the_sums_of_slices_by_repr(self):
        # one running sum read at each N performs the additions of
        # sum(stream[:N], 0j), in the same order, for complex, real and zero terms
        rng = random.Random(20261019)
        for _ in range(200):
            stream = [
                rng.choice(
                    [
                        0j,
                        0.0,
                        -0.0,
                        rng.uniform(-1e3, 1e3),
                        complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                        complex(rng.expovariate(1e-3), -rng.expovariate(1e3)),
                    ]
                )
                for _ in range(rng.randint(1, 400))
            ]
            ns = sorted(rng.sample(range(len(stream) + 1), rng.randint(1, min(5, len(stream) + 1))))
            want = [sum(stream[:n], 0j) for n in ns]
            assert repr(_prefix_sums(stream, ns)) == repr(want), (stream, ns)
            assert repr(_prefix_sums(iter(stream), ns)) == repr(want), (stream, ns)


class TestPointCoercion:
    """A point is complex(s): int, float and complex spellings of one real
    point, signed zero included, give the same results."""

    SPELLINGS = (2, 2.0, 2 + 0j, complex(2.0, -0.0))

    def test_spellings_of_a_real_point_agree(self):
        for chi in (CHI4, enumerate_characters(5)[1]):
            got = {repr((evaluate(chi, s), partial_sum(chi, s, 50))) for s in self.SPELLINGS}
            assert len(got) == 1, got

    def test_audit_json_agrees_but_echoes_the_signed_zero(self):
        jsons = [
            [c.to_json_dict() for c in run_audit(CHI4, s, [10, 100], grid_step=0.1)]
            for s in self.SPELLINGS
        ]
        assert repr(jsons[0]) == repr(jsons[1]) == repr(jsons[2])
        assert repr(jsons[3]).replace("[2.0, -0.0]", "[2.0, 0.0]") == repr(jsons[0])

    @pytest.mark.parametrize(
        "s", [math.nan, math.inf, -math.inf, complex(0.5, math.inf), complex(0.5, math.nan)]
    )
    def test_non_finite_point_is_rejected_at_once(self, s):
        with pytest.raises(ValueError, match="s must be a finite point"):
            evaluate(CHI4, s)
        with pytest.raises(ValueError, match="s must be a finite point"):
            hurwitz_zeta(s, 0.5)

    @pytest.mark.parametrize(
        "s", [math.nan, math.inf, complex(0.5, math.inf), complex(0.5, math.nan)]
    )
    def test_non_finite_point_is_rejected_by_every_truncation_entry(self, s):
        calls = [
            lambda: partial_sum(CHI4, s, 10),
            lambda: pappus_check(CHI4, s, 10),
            *(lambda v=v: build_vectors(CHI4, s, 10, v) for v in VARIANTS),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="s must be a finite point"):
                call()

    def test_point_past_the_shift_cap_raises_before_any_sum(self):
        # past a shift of 2^20 - 1 for every M (at sigma = 0.5, tol 1e-10,
        # from |t| near 5.3e6), or where the bound overflows, no term is summed
        class Watched(float):
            def __add__(self, other):
                raise AssertionError("a term was summed")

            __radd__ = __add__

        for s in (complex(0.5, 1e7), complex(0.5, 1e30), complex(0.5, 5.3e6)):
            with pytest.raises(ContinuationRangeError, match="shift above 1048575"):
                _hurwitz(s, [Watched(0.25)], 1e-10)
            with pytest.raises(ContinuationRangeError):
                evaluate(CHI4, s)
        assert _hurwitz(complex(0.5, 5.2e6), [1.0], 1e-10)[3] < 1 << 20

    def test_height_of_the_old_shift_cap_is_finite_or_out_of_range(self):
        # at 0.5 + 8.9e5i the plan takes M near its cap: the product (s)_2M
        # formed whole would overflow, and times a power of w give NaN
        for tol in (1e-10, 1e-13):
            try:
                ev = evaluate(CHI4, complex(0.5, 8.9e5), tol=tol)
            except ContinuationRangeError:
                continue
            assert cmath.isfinite(ev.value) and math.isfinite(ev.err_estimate), (tol, ev)
            assert ev.n_used < 1 << 20

    @pytest.mark.parametrize("sigma", [60.0, 1e6, 1e30])
    def test_large_real_sigma_gives_one(self, sigma):
        # L(sigma, chi mod 4) = 1 - 3^-sigma + ...: q^-s and (a + q k)^-s
        # underflow to 0 and nothing overflows
        ev = evaluate(CHI4, sigma)
        assert ev.method == "hurwitz" and ev.n_used == 10
        assert abs(ev.value - (1.0 - 3.0**-sigma)) <= ev.err_estimate <= 1e-13

    def test_real_character_at_a_real_point_is_exactly_real(self):
        for s in (*self.SPELLINGS, 0.5, -0.7):
            assert evaluate(CHI4, s).value.imag == 0.0
        # the real-axis scans read only the real part: nothing is dropped
        for q in range(1, 31):
            for chi in enumerate_real_characters(q):
                for sigma in (0.05, 0.3, 0.5, 0.77, 0.95):
                    assert evaluate(chi, sigma).value.imag == 0.0, (q, chi.values, sigma)


class TestHurwitzZeta:
    def test_riemann_specials(self):
        assert abs(hurwitz_zeta(2.0, 1.0) - PI2_OVER_6) < 1e-12
        assert abs(hurwitz_zeta(0.5, 1.0) - ZETA_HALF) < 1e-12
        assert abs(hurwitz_zeta(2.0, 0.5) - PI2_OVER_2) < 1e-12

    @pytest.mark.parametrize("s,x,want", HURWITZ_SPOTS)
    def test_frozen_spots(self, s, x, want):
        got = hurwitz_zeta(s, x, tol=1e-12)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_pole_at_one(self):
        for s in (1.0, 1, complex(1.0, 0.0), complex(1.0)):
            with pytest.raises(PoleError, match="pole at s = 1"):
                hurwitz_zeta(s, 0.5)

    def test_continuation_range(self):
        with pytest.raises(ContinuationRangeError, match="sigma = -1.0 is outside"):
            hurwitz_zeta(-1.0, 0.5)
        with pytest.raises(ContinuationRangeError, match="sigma = -2.0 is outside"):
            hurwitz_zeta(complex(-2.0, 5.0), 0.5)

    @pytest.mark.parametrize("s,x", [(800, 0.25), (800 + 1j, 0.25), (512, 0.25), (400, 0.1)])
    def test_x_power_past_the_float_range_raises(self, s, x):
        # zeta(s, x) > x^-sigma, which is past the largest float here: the
        # pass's first direct term x^-s overflows
        message = re.escape(f"at s = {complex(s)}, a Hurwitz power is past the float range")
        with pytest.raises(ContinuationRangeError, match=message):
            hurwitz_zeta(s, x)

    @pytest.mark.parametrize("s", FAR_POINTS)
    def test_power_past_the_float_range_in_the_pass_raises(self, s):
        with pytest.raises(ContinuationRangeError, match=re.escape(f"at s = {s}, a Hurwitz power")):
            hurwitz_zeta(s, 1.0)

    @pytest.mark.parametrize("s,x", [(511, 0.25), (300, 0.1)])
    def test_largest_x_powers_in_range_are_finite(self, s, x):
        # 0.25^-511 = 2^1022 is about 4.494e307; the rest adds below an ulp
        value = hurwitz_zeta(s, x)
        assert cmath.isfinite(value)
        assert value == x**-s

    @pytest.mark.parametrize("x", [0.0, -0.25, 1.0001, 2.0])
    def test_x_domain(self, x):
        with pytest.raises(ValueError, match=rf"x must lie in \(0, 1\], got {x}"):
            hurwitz_zeta(2.0, x)

    @pytest.mark.parametrize("x", [0.0, 1.5, math.nan])
    def test_bad_x_is_rejected_before_the_kernel_runs(self, x, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _hurwitz(*args, **kwargs)

        monkeypatch.setattr(lseries_mod, "_hurwitz", counting)
        with pytest.raises(ValueError, match=r"x must lie in \(0, 1\]"):
            hurwitz_zeta(2.0, x)
        assert calls == []
        hurwitz_zeta(2.0, 0.5)  # the wrapper is live: a good x reaches the kernel
        assert len(calls) == 1

    def test_x_equals_one_allowed(self):
        assert abs(hurwitz_zeta(2.0, 1.0) - PI2_OVER_6) < 1e-12

    def test_live_mpmath_cross_check_with_honest_error(self):
        mpmath.mp.dps = 30
        rng = random.Random(20240817)
        for _ in range(40):
            sigma = rng.uniform(-0.9, 4.0)
            t = rng.choice([0.0, rng.uniform(-3.0, 3.0)])
            x = rng.uniform(0.05, 1.0)
            s = complex(sigma, t)
            if sigma == 1.0 and t == 0.0:
                continue
            [value], _, err, _ = _hurwitz(s, [x], 1e-10)
            ref = mpmath.zeta(mpmath.mpc(sigma, t), x)
            actual = abs(complex(value + 1.0 / (s - 1.0)) - complex(ref))
            assert actual <= 2.0 * err + 1e-12, (sigma, t, x, actual, err)

    def test_tighter_tolerance_tightens_the_answer(self):
        # sigma near 0 with small x is the hard corner for the default shift
        [loose], _, loose_err, _ = _hurwitz(complex(0.05, 0.0), [0.05], 1e-6)
        [tight], _, tight_err, _ = _hurwitz(complex(0.05, 0.0), [0.05], 1e-13)
        assert tight_err <= loose_err
        mpmath.mp.dps = 30
        ref = float(mpmath.zeta(0.05, 0.05))
        assert abs(tight + 1.0 / (0.05 - 1.0) - ref) <= 2.0 * tight_err + 1e-12


class TestEvaluate:
    def test_riemann_zeta_via_modulus_one(self):
        ev = evaluate(CHI0_1, 2.0, tol=1e-12)
        assert ev.method == "hurwitz"
        assert abs(ev.value - PI2_OVER_6) < 1e-12
        assert abs(ev.value - PI2_OVER_6) <= 2.0 * ev.err_estimate + 1e-14

    def test_riemann_zeta_critical_point(self):
        ev = evaluate(CHI0_1, 0.5, tol=1e-12)
        assert abs(ev.value - ZETA_HALF) < 1e-12

    def test_catalan_value(self):
        ev = evaluate(CHI4, 2.0, tol=1e-12)
        assert abs(ev.value - CATALAN) < 1e-12

    def test_grouped_at_one_chi4(self):
        ev = evaluate(CHI4, 1.0)
        assert ev.method == "grouped"
        assert abs(ev.value - PI_OVER_4) <= ev.err_estimate + 5e-16
        assert abs(ev.value - PI_OVER_4) < 1e-10
        assert ev.n_used == 10  # the shift floor, as off s = 1

    def test_grouped_at_one_chi3(self):
        ev = evaluate(CHI3, 1.0)
        assert ev.method == "grouped"
        assert abs(ev.value - PI_OVER_3SQRT3) < 1e-10

    def test_grouped_handles_complex_characters(self):
        # quartic character mod 5: compare against a huge direct partial sum
        chi = next(c for c in enumerate_characters(5) if not c.is_real)
        ev = evaluate(chi, 1.0, tol=1e-13)
        value, err = ev.value, ev.err_estimate
        direct = brute_partial_sum(chi, 1.0, 5 * 200_000)
        # the alternating-block direct sum itself is only O(1/N) accurate
        assert abs(value - direct) < 1e-5
        assert err < 1e-12

    def test_principal_euler_factors(self):
        # L(2, principal mod 6) = zeta(2) * (1 - 2^-2) * (1 - 3^-2) = pi^2 / 9
        ev = evaluate(CHI0_6, 2.0, tol=1e-12)
        want = PI2_OVER_6 * (1 - 0.25) * (1 - 1 / 9)
        assert abs(ev.value - want) < 1e-12
        assert abs(want - math.pi**2 / 9) < 1e-15

    def test_principal_pole(self):
        for chi in (CHI0_1, CHI0_6):
            with pytest.raises(PoleError):
                evaluate(chi, 1.0)

    def test_continuation_range(self):
        with pytest.raises(ContinuationRangeError):
            evaluate(CHI4, -1.5)

    @pytest.mark.parametrize("s", FAR_POINTS)
    @pytest.mark.parametrize(
        "chi",
        [
            CHI4,
            CHI0_6,
            next(c for c in enumerate_characters(5) if not c.is_real),
            enumerate_real_characters(7)[1],  # t log 7 is past the float range: q^-s raises
        ],
        ids=["real-mod-4", "principal-mod-6", "complex-mod-5", "real-mod-7"],
    )
    def test_hurwitz_power_past_the_float_range_is_a_domain_error(self, chi, s):
        with pytest.raises(ContinuationRangeError, match=re.escape(f"at s = {s}, a Hurwitz power")):
            evaluate(chi, s)

    def test_tail_bound_links_evaluate_to_partial_sum(self):
        n_terms = 2000
        for q in range(1, 11):
            for chi in enumerate_characters(q):
                for s in (2.5, complex(2.5, 1.0)):
                    sigma = complex(s).real
                    ev = evaluate(chi, s)
                    ps = partial_sum(chi, s, n_terms)
                    bound = n_terms ** (1.0 - sigma) / (sigma - 1.0)
                    assert abs(ev.value - ps) <= 2.0 * bound + 1e-9, (q, chi.values, s)

    @pytest.mark.parametrize("s", [0, 1e-300, -1e-300, complex(1e-300, 1e-300)])
    def test_at_and_next_to_zero(self, s):
        # L(0, chi mod 4) = 1/2; (s)_2M is 0 or below the float range there
        ev = evaluate(CHI4, s)
        assert abs(ev.value - 0.5) <= ev.err_estimate <= 1e-13, (s, ev)

    def test_returns_evaluation_record(self):
        ev = evaluate(CHI4, 3.0)
        assert isinstance(ev, LEvaluation)
        assert ev.n_used >= 1
        assert ev.err_estimate >= 0.0


def fundamental_discriminants(bound):
    """The fundamental discriminants d < 0 with |d| < bound."""
    def squarefree(m):
        return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))

    return [
        d
        for d in range(-3, -bound, -1)
        if (d % 4 == 1 and squarefree(-d)) or (d % 16 in (8, 12) and squarefree(-d // 4))
    ]


def class_number(d):
    """h(d) for d < 0: the reduced forms (a, b, c) with b^2 - 4ac = d,
    |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            c, rest = divmod(b * b - d, 4 * a)
            if rest == 0 and c >= a and not (b < 0 and a == c):
                count += 1
        a += 1
    return count


class TestAtOne:
    def test_class_number_formula_within_err_estimate(self):
        discriminants = fundamental_discriminants(400)
        assert len(discriminants) == 122
        for d in discriminants:
            q = -d
            chi = DirichletCharacter.from_values(q, [kronecker_symbol(d, n) for n in range(q)])
            ev = evaluate(chi, 1)
            w = {-3: 6, -4: 4}.get(d, 2)
            want = 2.0 * math.pi * class_number(d) / (w * math.sqrt(q))
            assert ev.method == "grouped"
            assert abs(ev.value - want) <= ev.err_estimate, (d, ev, want)

    @pytest.mark.parametrize("x", [1 / 401, 0.05, 1 / 3, 0.5, 0.9, 1.0])
    def test_kernel_finite_part_is_minus_digamma(self, x):
        mpmath.mp.dps = 30
        [value], _, err, shift = _hurwitz(complex(1.0), [x], 1e-10)
        want = -float(mpmath.digamma(x))
        assert abs(value - want) <= err, (x, shift, value, want, err)
        assert err <= 1e-10 * max(1.0, abs(want))

    def test_smaller_tolerance_never_uses_fewer_terms(self):
        # at s = 1 the shift floor meets every tolerance down to the roundoff
        # floor at every residue, so every tolerance sums the same 10 terms
        # per residue directly, and a smaller one never takes fewer corrections
        tols = [1e-4, 1e-8, 1e-10, 1e-13, 1e-14, 1e-15, 1e-16, 1e-20, 1e-300]
        for chi in (CHI3, CHI4, enumerate_real_characters(401)[1]):
            used = [evaluate(chi, 1, tol=tol).n_used for tol in tols]
            assert used == [10] * len(tols), (chi.modulus, used)
            pairs = [lseries_mod._plan(1.0, 1 / chi.modulus, tol)[1] for tol in tols]
            assert pairs == sorted(pairs), (chi.modulus, pairs)


def one_x_kernel(s_num, x, plan, q=1):
    """The single-x Euler-Maclaurin sum at a plan (shift, pairs, log_c,
    decay), written out in its own order: the oracle that the list kernel
    keeps the same arithmetic for every x.  Returns (value, truncation
    bound, roundoff estimate)."""
    shift, pairs, log_c, decay = plan
    b = lseries_mod._B_OVER_FACT
    sigma, t = s_num.real, abs(s_num.imag)
    direct = 0.0 if t == 0.0 else 0j
    for k in range(shift):
        direct += (x + q * k) ** (-s_num)
    w = shift + x / q
    term = b[0] * s_num / w
    tail = 0.5 + term
    for j in range(1, pairs):
        term *= b[j] / b[j - 1] * (s_num + (2 * j - 1)) * (s_num + 2 * j) * (1.0 / (w * w))
        tail += term
    head = (x + q * shift) ** (-s_num)
    value = direct + head * tail + q ** (-s_num) * lseries_mod._pole_free(s_num, math.log(w))
    wq = x + q * shift
    if t == 0.0:
        size, phase = direct, 0.0
    else:
        size = x**-sigma - x * x**-sigma * lseries_mod._pole_free(sigma, math.log(wq / x)) / q
        phase = t * math.log(wq)
    trunc = q**-sigma * math.exp(log_c - decay * math.log(w))
    roundoff = 5e-16 * (shift + pairs) * abs(value) + 2.0**-53 * (shift + phase) * size
    return value, trunc, roundoff


def cheapest_plan(s_num, x, tol):
    """(shift, pairs) minimising shift + _PAIR_COST * pairs over every M up
    to the cap, with no early exit: Johansson's bound solved for each M."""
    best = None
    for m in range(1, lseries_mod._MAX_PAIRS + 1):
        decay = s_num.real + 2 * m - 1
        log_coeff = math.fsum(
            [math.log(4.0 / decay / max(tol, 5e-16))]
            + [math.log(abs(s_num + k) / (2.0 * math.pi)) for k in range(2 * m)]
        )
        if log_coeff / decay > 20.0:
            continue
        need = math.exp(log_coeff / decay) - x
        if not need <= lseries_mod._MAX_SHIFT:
            continue
        shift = max(10, math.ceil(need))
        cost = shift + lseries_mod._PAIR_COST * m
        if best is None or cost < best[0]:
            best = (cost, shift, m)
    return best[1:]


def full_walk_plan(s_num, x_min, tol):
    """``_plan``'s arithmetic at every M up to the cap, with no early exit:
    the (shift, pairs, log_c, decay) of least cost (the first on a tie), or
    None where no shift up to the cap meets the target."""
    if s_num == 0:
        return 10, 1, -math.inf, 1.0
    log_target = math.log(max(tol, 5e-16))
    log_rising = 0.0
    best, best_cost = None, math.inf
    for m in range(1, lseries_mod._MAX_PAIRS + 1):
        log_rising += math.log(abs(s_num + (2 * m - 2))) + math.log(abs(s_num + (2 * m - 1)))
        decay = s_num.real + (2 * m - 1)
        log_c = math.log(4.0) + log_rising - 2 * m * math.log(2.0 * math.pi) - math.log(decay)
        log_w = (log_c - log_target) / decay
        if log_w >= math.log(2.0 * lseries_mod._MAX_SHIFT):
            continue
        need = math.exp(log_w) - x_min
        if need > lseries_mod._MAX_SHIFT:
            continue
        shift = max(10, math.ceil(need))
        if shift + lseries_mod._PAIR_COST * m < best_cost:
            best, best_cost = (shift, m, log_c, decay), shift + lseries_mod._PAIR_COST * m
    return best


class TestOnePassPerEvaluation:
    @pytest.mark.parametrize("q", [1, 168])
    def test_shift_and_kernel_run_once_per_evaluate(self, q, monkeypatch):
        # the kernel makes its own plan, and its pass is kept: one call per
        # distinct (q, s), shared by every character mod q
        calls = []
        kernel = lseries_mod._hurwitz

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(lseries_mod, "_hurwitz", counted)
        points = (0.5, complex(0.5, 14.0), complex(-0.5, 100.0))
        for chi in enumerate_characters(q)[:3]:
            for s in points:
                assert evaluate(chi, s).method == "hurwitz"
        assert [args[0] for args in calls] == [complex(s) for s in points]

    def test_list_kernel_equals_single_x_calls_bit_for_bit(self):
        rng = random.Random(20261018)
        for _ in range(30):
            sigma = rng.uniform(-0.9, 3.0)
            s_num = rng.choice([sigma, complex(sigma, rng.uniform(-1000.0, 1000.0))])
            q = rng.randint(1, 40)
            tol = rng.choice([1e-4, 1e-10, 1e-13])
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for xs, scale in ((units, q), ([a / q for a in units], 1)):
                got = _hurwitz(complex(s_num), xs, tol, scale)
                plan = lseries_mod._plan(s_num, min(xs) / scale, tol)
                oracle = [one_x_kernel(s_num, x, plan, scale) for x in xs]
                values = [value for value, _, _ in oracle]
                errs = [trunc + roundoff for _, trunc, roundoff in oracle]
                # summed in order from 0.0, as the kernel does (sum() compensates)
                sums = [reduce(operator.add, terms, 0.0) for terms in (map(abs, values), errs)]
                assert repr(got) == repr((values, *sums, plan[0])), (s_num, q, scale)

    def test_smallest_residue_needs_the_largest_shift(self):
        # the smallest residue 1/q sets the one plan of every residue, and
        # the bound falls as x grows, so every residue meets it there
        rng = random.Random(5)
        for _ in range(40):
            s = complex(rng.uniform(-0.99, 3.0), rng.choice([0.0, rng.uniform(-1000.0, 1000.0)]))
            s_num = s.real if s.imag == 0.0 else s
            q = rng.randint(1, 450)
            residues = sorted({1, 2, q // 2 or 1, q - 1 or 1, q})
            plan = lseries_mod._plan(s_num, 1 / q, 1e-10)
            assert _hurwitz(s, [a / q for a in residues], 1e-10)[3] == plan[0]
            for a in residues:
                _, trunc, _ = one_x_kernel(s_num, a / q, plan)
                assert trunc <= 1e-10, (s, q, a, plan[:2], trunc)

    def test_residues_of_two_shift_classes_share_the_larger(self):
        # alone, the units a/q would take plans with shifts in several
        # classes (a larger x may trade pairs for terms); every residue runs
        # at the plan of 1/q and n_used says so
        chi = enumerate_characters(168)[3]
        s = complex(0.5, 454.65)
        units = [a for a, v in enumerate(chi.values) if v]
        alone = {a: _hurwitz(s, [a / 168], 1e-10)[3] for a in units}
        ev = evaluate(chi, s)
        assert ev.n_used == alone[1]
        assert min(alone.values()) < ev.n_used < max(alone.values())
        mpmath.mp.dps = 30
        s_mp = mpmath.mpc(s.real, s.imag)
        ref = mpmath.mpf(168) ** (-s_mp) * mpmath.fsum(
            complex(_to_number(v)) * mpmath.zeta(s_mp, mpmath.mpf(a) / 168)
            for a, v in enumerate(chi.values)
            if v
        )
        assert abs(ev.value - complex(ref)) <= ev.err_estimate


KEPT_PASS_POINTS = (
    1, 0.5, complex(0.5, -0.0), complex(0.5, 14.1), -0.5, 2, complex(-0.5, 100.0), 1 + 1e-12
)


def evaluation_or_error(chi, s, **kwargs):
    try:
        return repr(evaluate(chi, s, **kwargs))
    except PoleError as error:
        return repr(error)


class TestKeptPasses:
    """The pass depends only on (q, s, tol): the last few are kept and shared
    by every character mod q, and a kept pass changes no output."""

    def count_kernel_calls(self, monkeypatch):
        calls = []
        kernel = lseries_mod._hurwitz

        def counted(s, xs, tol, q):
            calls.append((q, s, tol))
            return kernel(s, xs, tol, q)

        monkeypatch.setattr(lseries_mod, "_hurwitz", counted)
        return calls

    @pytest.mark.parametrize("q", [1, 4, 24, 168])
    def test_warm_pass_gives_the_cold_evaluation(self, q):
        chars = enumerate_characters(q)
        for s in KEPT_PASS_POINTS:
            cold = []
            for chi in chars:
                lseries_mod._residue_pass.cache_clear()
                cold.append(evaluation_or_error(chi, s))
            hits = lseries_mod._residue_pass.cache_info().hits
            assert [evaluation_or_error(chi, s) for chi in chars] == cold, s
            # every character that reaches the pass reads the kept one
            reached = sum(not (chi.is_principal and s == 1) for chi in chars)
            assert lseries_mod._residue_pass.cache_info().hits - hits == reached

    def test_real_point_with_either_signed_zero_is_one_pass(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        chi = enumerate_characters(24)[5]
        assert repr(evaluate(chi, complex(0.5, -0.0))) == repr(evaluate(chi, 0.5))
        assert len(calls) == 1

    def test_kernel_runs_once_per_q_s_and_tol(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        s = complex(0.5, 14.1)
        for tol in (1e-10, 1e-6, 1e-10):
            for chi in enumerate_characters(24):
                evaluate(chi, s, tol=tol)
        for chi in enumerate_characters(12):
            evaluate(chi, s)
        assert calls == [(24, s, 1e-10), (24, s, 1e-6), (12, s, 1e-10)]

    def test_a_refused_point_is_refused_on_every_call(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        chi = enumerate_characters(3)[1]
        for _ in range(3):
            with pytest.raises(ContinuationRangeError, match="Hurwitz power"):
                evaluate(chi, complex(1000.0, 1e308))
        assert len(calls) == 3
        assert lseries_mod._residue_pass.cache_info().currsize == 0

    def test_a_group_at_three_points_runs_three_passes(self, monkeypatch):
        # the lvalues benchmark's order: each non-principal character at
        # s = 1 and two heights
        calls = self.count_kernel_calls(monkeypatch)
        points = (complex(1.0), complex(0.5, 3.0), complex(0.5, 700.0))
        for chi in enumerate_characters(168)[1:]:
            for s in points:
                evaluate(chi, s)
        assert calls == [(168, s, 1e-10) for s in points]

    def test_a_kept_pass_reads_phi_q_exponents(self):
        # phi(300) = 80 reads of the exponent table, each at a unit
        chi = next(c for c in enumerate_characters(300) if not c.is_real)
        s = complex(0.5, 14.0)
        want = evaluate(chi, s)
        reads = []

        class CountingTable(tuple):
            def __getitem__(self, n):
                reads.append(n)
                return super().__getitem__(n)

        counting = replace(chi, exponents=CountingTable(chi.exponents))
        hits = lseries_mod._residue_pass.cache_info().hits
        assert repr(evaluate(counting, s)) == repr(want)
        assert lseries_mod._residue_pass.cache_info().hits == hits + 1
        assert reads == list(lseries_mod._modulus(300)[0])
        assert len(reads) == 80

    def test_at_most_the_fixed_number_of_passes_is_kept(self):
        assert lseries_mod._residue_pass.cache_info().maxsize == lseries_mod._PASSES_KEPT
        chi = enumerate_characters(5)[2]
        for k in range(3 * lseries_mod._PASSES_KEPT):
            evaluate(chi, complex(0.5, k))
            assert lseries_mod._residue_pass.cache_info().currsize == min(
                k + 1, lseries_mod._PASSES_KEPT
            )


def clear_kept_work():
    for memo in (lseries_mod._residue_pass, lseries_mod._shifted, lseries_mod._modulus):
        memo.cache_clear()


class TestShiftedTable:
    """What a pass needs of the shift and not of s is built once per (units,
    q, shift) and read by every pass there; a read table changes no output."""

    POINTS = (1, complex(0.5, 14.0), complex(0.5, 50.0), complex(0.5, 500.0))

    def test_warm_table_gives_the_cold_result_bit_for_bit(self):
        chars = enumerate_characters(168)
        other = enumerate_characters(24)[1]
        cold = {}
        for s in self.POINTS:
            cold[s] = []
            for chi in chars:
                clear_kept_work()
                cold[s].append(evaluation_or_error(chi, s))
            evaluate(chars[1], s)  # builds the table at s
            hits = lseries_mod._shifted.cache_info().hits
            warm = []
            for chi in chars:
                lseries_mod._residue_pass.cache_clear()
                warm.append(evaluation_or_error(chi, s))
            assert warm == cold[s], s
            reached = sum(not (chi.is_principal and s == 1) for chi in chars)
            assert lseries_mod._shifted.cache_info().hits - hits == reached
            # another q between two passes at 168 takes the one kept table
            evaluate(other, s)
            lseries_mod._residue_pass.cache_clear()
            assert evaluation_or_error(chars[1], s) == cold[s][1], s
        # four points, three shifts: s = 1 and 0.5 + 14i share N = 10 and one table
        assert [evaluate(chars[1], s).n_used for s in self.POINTS] == [10, 10, 16, 103]
        clear_kept_work()
        evaluate(chars[1], 1)
        hits = lseries_mod._shifted.cache_info().hits
        assert [evaluation_or_error(chi, self.POINTS[1]) for chi in chars] == cold[self.POINTS[1]]
        assert lseries_mod._shifted.cache_info().hits - hits == 1

    def test_a_table_for_equal_residues_of_another_type_gives_the_same_terms(self):
        # 1 (the unit mod 1) and 1.0 (hurwitz_zeta's x) are one key
        for s in (0.5, complex(0.5, 14.0), 2.5):
            clear_kept_work()
            cold_zeta = hurwitz_zeta(s, 1.0)
            clear_kept_work()
            cold_l = repr(evaluate(CHI0_1, s))
            assert repr(hurwitz_zeta(s, 1.0)) == repr(cold_zeta)  # after the units' table
            lseries_mod._residue_pass.cache_clear()
            assert repr(evaluate(CHI0_1, s)) == cold_l  # after the float's table


class TestShiftFromTheEstimate:
    """The plan is solved from Johansson's remainder bound: the cheapest
    (N, M), N >= 10, whose bound meets max(tol, 5e-16) at min(xs)."""

    TOLS = (1e-4, 1e-10, 1e-13)

    def test_every_residue_meets_the_target(self):
        rng = random.Random(20261019)
        for _ in range(60):
            s = complex(rng.uniform(-0.99, 3.0), rng.uniform(-1000.0, 1000.0))
            q = rng.randint(1, 450)
            tol = rng.choice(self.TOLS)
            xs = sorted({1 / q, *(rng.randint(1, q) / q for _ in range(4))})
            plan = lseries_mod._plan(s, xs[0], tol)
            *_, shift = _hurwitz(s, xs, tol)
            assert shift == plan[0]
            for x in xs:
                _, trunc, _ = one_x_kernel(s, x, plan)
                assert trunc <= max(tol, 5e-16), (s, q, tol, x, plan[:2], trunc)

    def test_one_term_fewer_would_miss_the_target(self):
        rng = random.Random(20261020)
        for _ in range(60):
            s = complex(rng.uniform(-0.99, 3.0), rng.uniform(-1000.0, 1000.0))
            q = rng.randint(1, 450)
            tol = rng.choice(self.TOLS)
            shift, pairs, log_c, decay = lseries_mod._plan(s, 1 / q, tol)
            assert (shift, pairs) == cheapest_plan(s, 1 / q, tol), (s, q, tol)
            if shift == 10:
                continue
            _, trunc, _ = one_x_kernel(s, 1 / q, (shift - 1, pairs, log_c, decay))
            assert trunc > max(tol, 5e-16), (s, q, tol, shift, trunc)

    def test_early_exits_give_the_full_walk_plan(self):
        # the walk stops where the cost can no longer fall, or at a plan with
        # the floor shift, which no larger M beats: the same plan, bit for
        # bit, as walking every M, and the same refusal where none fits
        rng = random.Random(20261020)
        points = [complex(0.5, 5.3e6), complex(0.5, 1e7), complex(0.5, 1e30), -0.999999, 0.0]
        for _ in range(6000):
            sigma = rng.choice([rng.uniform(-1.0, 3.0), -1.0 + 10.0 ** rng.uniform(-9.0, -1.0)])
            if sigma <= -1.0:
                continue
            t = rng.choice([0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(0.0, 7.0)])
            points.append(complex(sigma, t) if t else sigma)
        refused = floor = 0
        for s_num in points:
            x_min = rng.choice([1.0 / rng.randint(1, 10**6), rng.uniform(1e-6, 1.0)])
            tol = 10.0 ** rng.uniform(-17.0, -2.0)
            want = full_walk_plan(s_num, x_min, tol)
            if want is None:
                refused += 1
                with pytest.raises(ContinuationRangeError, match="shift above 1048575"):
                    lseries_mod._plan(s_num, x_min, tol)
                continue
            floor += want[0] == 10
            assert repr(lseries_mod._plan(s_num, x_min, tol)) == repr(want), (s_num, x_min, tol)
        assert refused > 20 and floor > 1000, (refused, floor)

    def test_real_axis_shift_is_the_default_at_every_tolerance(self):
        # on the real axis the floor N = 10 meets every tolerance with a few
        # pairs; a smaller tolerance adds pairs, not terms
        rng = random.Random(20261021)
        points = [1.0, 0.0, -0.99, 0.5, 10.0]
        points += [rng.uniform(-0.999, 10.0) for _ in range(2000)]
        for sigma in points:
            q = rng.randint(1, 1000)
            tol = 10.0 ** rng.uniform(-300.0, 0.0)
            assert _hurwitz(complex(sigma), [1 / q], tol)[3] == 10, (sigma, q, tol)

    def test_high_t_values_stay_within_their_estimate(self):
        # two characters mod 13 on the critical line: the error is within
        # err_estimate, and err_estimate is at most the tolerance summed over
        # the 12 residues (times |13^-s|) plus roundoff
        mpmath.mp.dps = 30
        for t in (460.0, 940.0, 1000.0):
            s_mp = mpmath.mpc(0.5, t)
            for chi in enumerate_characters(13)[1:3]:
                ev = evaluate(chi, complex(0.5, t))
                ref = mpmath.mpf(13) ** (-s_mp) * mpmath.fsum(
                    complex(_to_number(v)) * mpmath.zeta(s_mp, mpmath.mpf(a) / 13)
                    for a, v in enumerate(chi.values)
                    if v
                )
                assert abs(ev.value - complex(ref)) <= ev.err_estimate, (chi.values, t, ev)
                assert ev.err_estimate <= 12 * 1e-10 / math.sqrt(13) + 1e-11, (t, ev)


class TestBisection:
    """f returns (value, err_estimate); the bisection stops at the first
    midpoint whose |value| is within its err_estimate, or at adjacent floats."""

    def test_refines_simple_root(self):
        f = lambda x: (x * x - 0.09, 0.0)
        root = _bisect_sign_change(f, 0.1, 0.9, f(0.1)[0])
        assert abs(root - 0.3) < 1e-11

    def test_exact_zero_midpoint_returns_immediately(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5, 0.0

        assert _bisect_sign_change(f, 0.0, 1.0, -0.5) == 0.5
        assert calls == [0.5]

    def test_stops_at_the_first_midpoint_within_its_error(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3, 1e-6

        root = _bisect_sign_change(f, 0.0, 1.0, -0.3)
        # midpoints 1/2, 1/4, 3/8, ...: the 18th, 0.29999923..., is the first
        # within 1e-6 of 0.3 (a width stop at 1e-6 would take 20)
        assert len(calls) == 18
        assert abs(root - 0.3) <= 1e-6
        assert all(abs(x - 0.3) > 1e-6 for x in calls[:-1])

    @pytest.mark.parametrize("err", [0.0, 1e-20])
    def test_tolerance_below_the_float_spacing_stops_at_adjacent_floats(self, err):
        # an err_estimate below the value's float spacing never stops early
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 200:
                raise RuntimeError("bisection did not stop")
            return (x - 0.1) + 1e-30, err  # negative below 0.1, positive from 0.1 on

        root = _bisect_sign_change(f, 0.0, 1.0, -0.1)
        assert root in (math.nextafter(0.1, 0.0), 0.1)


def akiyama_tanigawa(n):
    """B_0 .. B_n as exact Fractions (B_1 = +1/2)."""
    row = [Fraction(0)] * (n + 1)
    numbers = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        numbers.append(row[0])
    return numbers


def chi_mp(v):
    """chi(a) at mpmath precision from its exact form."""
    if isinstance(v, int):
        return v
    order, exponent = v
    return mpmath.expjpi(mpmath.mpf(2 * exponent) / order)


def l_value_mp(chi, s, dps):
    """q^-s sum(chi(a) zeta(s, a/q), a = 1..q) at `dps` digits."""
    q = chi.modulus
    with mpmath.workdps(dps):
        s_mp = mpmath.mpc(s.real, s.imag)
        total = mpmath.fsum(
            chi_mp(chi.values[a % q]) * mpmath.zeta(s_mp, mpmath.mpf(a) / q)
            for a in range(1, q + 1)
            if chi.values[a % q]
        )
        return complex(mpmath.mpf(q) ** -s_mp * total)


class TestBernoulliTable:
    def test_each_entry_is_the_exact_value_correctly_rounded(self):
        pairs = lseries_mod._MAX_PAIRS
        exact = akiyama_tanigawa(2 * pairs)
        want = [float(exact[2 * j] / math.factorial(2 * j)) for j in range(1, pairs + 1)]
        assert list(lseries_mod._B_OVER_FACT) == want
        assert exact[2] == Fraction(1, 6) and exact[12] == Fraction(-691, 2730)


class TestNearOne:
    """Off s = 1 but next to it, a non-principal character's pole terms
    w^(1-s)/(s-1), each about 1/(s-1), cancel over the residues; the kernel
    sums (w^(1-s) - 1)/(s-1) instead, with no 1/(s-1) to cancel."""

    POINTS = (1 + 1e-12, 1 - 1e-12, 1 + 1e-9, complex(1.0, 1e-12), complex(1 - 1e-12, 1e-12))

    @pytest.mark.parametrize("s", POINTS)
    @pytest.mark.parametrize("q,index", [(4, 1), (101, 1), (5, 1), (13, 2)])
    def test_value_next_to_the_pole_matches_mpmath(self, s, q, index):
        chi = enumerate_characters(q)[index]
        ev = evaluate(chi, s)
        error = abs(ev.value - l_value_mp(chi, complex(s), 40))
        assert error <= ev.err_estimate <= 1e-10, (q, s, error, ev)
        assert error <= 1e-13, (q, s, error)

    def test_pole_free_term_matches_mpmath(self):
        points = (1 + 1e-12, 1 - 1e-9, 0.5, complex(1.0, 1e-12), complex(0.5, 14.0), 1e-3 - 900j)
        for s in points:
            for w in (10.0, 10.25, 200.5, 1e5):
                got = lseries_mod._pole_free(s, math.log(w))
                with mpmath.workdps(40):
                    s_mp = mpmath.mpc(complex(s).real, complex(s).imag)
                    want = complex((mpmath.mpf(w) ** (1 - s_mp) - 1) / (s_mp - 1))
                # the phase t log w is itself rounded, to about 1e-16 of it
                phase = abs(complex(s).imag) * math.log(w)
                assert abs(got - want) <= 1e-15 * (1.0 + phase) * max(1.0, abs(want)), (s, w, got)


class TestPrincipalNearThePole:
    """For principal chi the pass drops each residue's pole, and evaluate
    adds phi(q) q^-s/(s-1) back once; next to s = 1 that term is the whole
    value, so its rounding must be in err_estimate too."""

    POINTS = (1 + 1e-12, 1 - 1e-12, 1 + 1e-9, 1 + 1e-9j, 0.999, 0.5, -0.5, 0.5 + 500j, 60)

    @pytest.mark.parametrize("s", POINTS)
    @pytest.mark.parametrize("q", [1, 4, 12, 101, 210])
    def test_error_is_within_err_estimate(self, s, q):
        s = complex(s)
        chi = enumerate_characters(q)[0]
        ev = evaluate(chi, s)
        ref = l_value_mp(chi, s, 40)  # q = 1 included: its one residue is a = 1
        assert abs(ev.value - ref) <= ev.err_estimate, (q, s, abs(ev.value - ref), ev)


class TestCalibration:
    """err_estimate bounds the actual error on a seeded sweep: q <= 30, real
    and complex characters, sigma in (-0.9, 3), |t| up to 1000 and points
    next to s = 1, at two tolerances."""

    def test_error_is_within_err_estimate(self):
        rng = random.Random(20261019)
        misses = []
        for _ in range(70):
            q = rng.randint(3, 30)
            chi = rng.choice(enumerate_characters(q)[1:])
            if rng.random() < 0.2:
                d = rng.choice([1e-12, -1e-12, 1e-9, -1e-9, 1e-6])
                s = rng.choice([complex(1.0 + d, 0.0), complex(1.0, d), complex(1.0 + d, d)])
            else:
                t = rng.choice([0.0, rng.uniform(-30.0, 30.0), rng.uniform(-1000.0, 1000.0)])
                s = complex(rng.uniform(-0.9, 3.0), t)
            ref = l_value_mp(chi, s, 30)
            for tol in (1e-10, 1e-13):
                ev = evaluate(chi, s, tol=tol)
                if not abs(ev.value - ref) <= ev.err_estimate:
                    misses.append((q, chi.values, s, tol, abs(ev.value - ref), ev.err_estimate))
        assert misses == []


class TestTolerances:
    CALLS = {
        "evaluate": lambda tol: evaluate(CHI4, 0.5, tol=tol),
        "evaluate_complex": lambda tol: evaluate(CHI4, complex(0.5, 3.0), tol=tol),
        "evaluate_grouped": lambda tol: evaluate(CHI4, 1, tol=tol),
        "hurwitz_zeta": lambda tol: hurwitz_zeta(0.5, 0.3, tol=tol),
    }

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_tolerance_that_is_not_positive_is_rejected(self, call, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            self.CALLS[call](tol)

    @pytest.mark.parametrize("s", [0.5, complex(0.5, 100.0), 1])
    def test_tolerance_below_the_roundoff_floor_stops_at_the_floor(self, s):
        chi = enumerate_real_characters(101)[1]
        # below 5e-16 a larger shift would only add roundoff
        floor = evaluate(chi, s, tol=5e-16)
        assert evaluate(chi, s, tol=1e-300).n_used == floor.n_used


class TestScanZeros:
    def test_chi4_window_has_no_sign_change(self):
        result = scan_zeros(CHI4, 0.1, 0.9, 17)
        assert result.brackets == ()
        assert len(result.sigmas) == 17
        assert result.min_abs > 0.0
        i = result.sigmas.index(result.argmin_sigma)
        assert result.min_abs == abs(result.values[i])
        assert all(math.isfinite(v) for v in result.values)

    def test_grid_is_uniform_and_inclusive(self):
        result = scan_zeros(CHI3, 0.2, 0.8, 4)
        assert result.sigmas == pytest.approx((0.2, 0.4, 0.6, 0.8))

    def test_rejects_complex_character(self):
        chi = next(c for c in enumerate_characters(5) if not c.is_real)
        with pytest.raises(NonRealCharacterError):
            scan_zeros(chi, 0.1, 0.9, 5)

    def test_rejects_thin_grid(self):
        with pytest.raises(ScanGridError):
            scan_zeros(CHI4, 0.1, 0.9, 1)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.9), (0.1, 1.0), (0.9, 0.1), (-0.2, 0.5)])
    def test_rejects_bad_window(self, lo, hi):
        with pytest.raises(ValueError):
            scan_zeros(CHI4, lo, hi, 5)

    @pytest.mark.parametrize("grid_step", [0.01, 0.1])
    def test_scan_equals_cold_evaluations(self, grid_step, monkeypatch):
        # every value and bisection point of a scan is the L-value that a
        # cold evaluate gives there, with nothing kept from the point before
        def scans():
            return [
                scan_zeros(chi, *_scan_grid(grid_step))
                for q in range(1, 61)
                for chi in enumerate_real_characters(q)
            ]

        warm = scans()
        evaluate_at = lseries_mod.evaluate

        def cold_evaluate(chi, s, **kwargs):
            clear_kept_work()
            return evaluate_at(chi, s, **kwargs)

        monkeypatch.setattr(lseries_mod, "evaluate", cold_evaluate)
        cold = scans()
        assert len(cold) == 188
        for got, want in zip(warm, cold):
            for field in ("values", "err_estimates", "brackets"):
                assert repr(getattr(got, field)) == repr(getattr(want, field)), field

    def test_a_real_scan_converts_no_root(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lseries_mod, "_to_number", calls.append)
        chi = enumerate_real_characters(1009)[1]
        scan_zeros(chi, *_scan_grid(0.25))
        assert lseries_mod._modulus.cache_info().currsize == 1
        assert lseries_mod._modulus(1009)[2] == []  # the roots list of 1009 is never filled
        assert calls == []

    def test_peak_memory_per_unit(self):
        # a scan holds the units, the shift's table (three arrays of doubles
        # and one list of ints), the kept passes and the one being summed
        chi = enumerate_real_characters(10007)[1]
        tracemalloc.start()
        try:
            scan_zeros(chi, *_scan_grid(0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 260 * 10006, peak / 10006

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_exact_zero_at_any_grid_point_is_its_own_bracket(self, at, monkeypatch):
        # the last grid point pairs with no right neighbour; a zero there
        # still counts.  No sign changes, so nothing is bisected.
        sigmas = (0.25, 0.5, 0.75)
        values = [1.0, 0.5, 0.25]
        values[at] = 0.0
        planted = dict(zip(sigmas, values))

        def fake_evaluate(chi, s, *, tol=1e-10):
            return LEvaluation(complex(planted[complex(s).real]), "hurwitz", 1, 1e-15)

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        result = scan_zeros(CHI4, 0.25, 0.75, 3)
        assert result.brackets == (SignChangeBracket(sigmas[at], sigmas[at], sigmas[at]),)
        assert (result.min_abs, result.argmin_sigma) == (0.0, sigmas[at])

    def test_synthetic_sign_change_is_bracketed_and_refined(self, monkeypatch):
        root_at = 0.4371

        def fake_evaluate(chi, s, *, tol=1e-10):
            sigma = complex(s).real
            return LEvaluation(
                value=complex(sigma - root_at, 0.0),
                method="hurwitz",
                n_used=1,
                err_estimate=1e-15,
            )

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        result = scan_zeros(CHI4, 0.1, 0.9, 9)
        assert len(result.brackets) == 1
        bracket = result.brackets[0]
        assert bracket.lo < root_at < bracket.hi
        assert abs(bracket.root - root_at) < 1e-9
