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

import math
import random

import mpmath
import pytest

from lseries_lab import run_audit
from lseries_lab import lseries as lseries_mod
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
    _bisect_sign_change,
    _euler_maclaurin_hurwitz,
    _hurwitz,
    _residue_table,
    _running_sums,
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
    def test_residue_table_is_value_complex_bit_for_bit(self):
        for chi in enumerate_characters(13) + enumerate_characters(16):
            table = _residue_table(chi)
            assert all(complex(table[a]) == chi.value_complex(a) for a in range(chi.modulus))

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("s", [0.5, complex(0.5, 3.0)])
    def test_powered_terms_match_brute_force_on_units(self, m, s):
        for chi in enumerate_characters(5) + enumerate_characters(12):
            terms = dict(_terms(chi, complex(s), 40, m, start=7))
            units = [n for n in range(7, 40) if chi.values[n % chi.modulus] != 0]
            assert list(terms) == units
            for n in units:
                want = chi.value_complex(n) ** m * n ** (-m * complex(s))
                assert abs(terms[n] - want) <= 1e-14

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
                for _, term in _terms(chi, complex(s), stop + 1, m):
                    total += term
                want.append(total)
            assert _running_sums(chi, complex(s), truncations, m) == want
            assert [_running_sums(chi, complex(s), [n], m)[0] for n in truncations] == want


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
        # past a shift of 2^20 - 1 (at sigma = 0.5, tol 1e-10, from |t| near
        # 8.9e5), or where the estimate overflows, no term is summed
        class Watched(float):
            def __radd__(self, other):
                raise AssertionError("a term was summed")

        for s in (complex(0.5, 1e7), complex(0.5, 1e30), complex(0.5, 8.9e5)):
            with pytest.raises(ContinuationRangeError, match="shift above 1048575"):
                _hurwitz(s, [Watched(0.25)], 1e-10)
            with pytest.raises(ContinuationRangeError):
                evaluate(CHI4, s)
        assert _hurwitz(complex(0.5, 1e5), [1.0], 1e-4)[1] < 1 << 20

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

    @pytest.mark.parametrize("x", [0.0, -0.25, 1.0001, 2.0])
    def test_x_domain(self, x):
        with pytest.raises(ValueError, match=rf"x must lie in \(0, 1\], got {x}"):
            hurwitz_zeta(2.0, x)

    def test_bad_x_anywhere_in_a_list_is_rejected(self):
        with pytest.raises(ValueError, match="got 1.5"):
            _hurwitz(complex(2.0), [0.5, 1.0, 1.5], 1e-10)

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
            [(value, err)], _ = _hurwitz(s, [x], 1e-10)
            ref = mpmath.zeta(mpmath.mpc(sigma, t), x)
            actual = abs(complex(value) - complex(ref))
            assert actual <= 2.0 * err + 1e-12, (sigma, t, x, actual, err)

    def test_tighter_tolerance_tightens_the_answer(self):
        # sigma near 0 with small x is the hard corner for the default shift
        [(loose, loose_err)], _ = _hurwitz(complex(0.05, 0.0), [0.05], 1e-6)
        [(tight, tight_err)], _ = _hurwitz(complex(0.05, 0.0), [0.05], 1e-13)
        assert tight_err <= loose_err
        mpmath.mp.dps = 30
        ref = float(mpmath.zeta(0.05, 0.05))
        assert abs(tight - ref) <= 2.0 * tight_err + 1e-12


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
        assert ev.n_used == 20 * 4  # the default shift's whole periods

    def test_grouped_at_one_chi3(self):
        ev = evaluate(CHI3, 1.0)
        assert ev.method == "grouped"
        assert abs(ev.value - PI_OVER_3SQRT3) < 1e-10

    def test_grouped_handles_complex_characters(self):
        # quartic character mod 5: compare against a huge direct partial sum
        chi = next(c for c in enumerate_characters(5) if not c.is_real)
        ev = evaluate(chi, 1.0)
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
        [(value, err)], shift = _hurwitz(complex(1.0), [x], 1e-10)
        want = -float(mpmath.digamma(x))
        assert abs(value - want) <= err, (x, shift, value, want, err)
        assert err <= 1e-10 * max(1.0, abs(want))

    def test_smaller_tolerance_never_uses_fewer_terms(self):
        # at s = 1 the default shift already meets the roundoff floor at
        # every residue, so every tolerance runs the same 20 * q terms
        tols = [1e-4, 1e-8, 1e-10, 1e-13, 1e-14, 1e-15, 1e-16, 1e-20, 1e-300]
        for chi in (CHI3, CHI4, enumerate_real_characters(401)[1]):
            used = [evaluate(chi, 1, tol=tol).n_used for tol in tols]
            assert used == [20 * chi.modulus] * len(tols), (chi.modulus, used)


def one_x_kernel(s_num, x, shift, pairs):
    """The single-x Euler-Maclaurin sum written out in its own order: the
    oracle that the list kernel keeps the same arithmetic for every x.
    Returns (value, truncation estimate, roundoff estimate)."""
    acc = 0.0 if isinstance(s_num, float) else 0j
    for k in range(shift):
        acc += (k + x) ** (-s_num)
    w = shift + x
    acc += w ** (1 - s_num) / (s_num - 1)
    acc += 0.5 * w ** (-s_num)
    rising = s_num
    w_pow = w ** (-s_num - 1)
    for j in range(pairs):
        acc += lseries_mod._B_OVER_FACT[j] * rising * w_pow
        rising = rising * (s_num + 2 * j + 1) * (s_num + 2 * j + 2)
        w_pow /= w * w
    omitted = abs(lseries_mod._B_OVER_FACT[pairs] * rising * w_pow)
    sigma = s_num.real if isinstance(s_num, complex) else s_num
    safety = max(1.0, abs(s_num + 2 * pairs + 1) / (sigma + 2 * pairs + 1))
    return acc, omitted * safety, lseries_mod._ROUNDOFF * (shift + pairs) * abs(acc)


def truncation_part(value, err, shift):
    """The first omitted correction's share of a kernel err_estimate."""
    return err - lseries_mod._ROUNDOFF * (shift + lseries_mod._DEFAULT_PAIRS) * abs(value)


class TestOnePassPerEvaluation:
    @pytest.mark.parametrize("q", [1, 168])
    def test_shift_and_kernel_run_once_per_evaluate(self, q, monkeypatch):
        # the kernel solves its own shift: one call per evaluate, both done
        calls = []
        kernel = lseries_mod._euler_maclaurin_hurwitz

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(lseries_mod, "_euler_maclaurin_hurwitz", counted)
        for chi in enumerate_characters(q)[:3]:
            for s in (0.5, complex(0.5, 14.0), complex(-0.5, 100.0)):
                calls.clear()
                assert evaluate(chi, s).method == "hurwitz"
                assert len(calls) == 1

    def test_list_kernel_equals_single_x_calls_bit_for_bit(self):
        rng = random.Random(20261018)
        for _ in range(30):
            sigma = rng.uniform(-0.9, 3.0)
            s_num = rng.choice([sigma, complex(sigma, rng.uniform(-1000.0, 1000.0))])
            q = rng.randint(1, 40)
            xs = [a / q for a in range(1, q + 1) if math.gcd(a, q) == 1]
            got, shift = _euler_maclaurin_hurwitz(s_num, xs, rng.choice([1e-4, 1e-10, 1e-13]))
            oracle = [one_x_kernel(s_num, x, shift, 6) for x in xs]
            oracle = [(value, trunc + roundoff) for value, trunc, roundoff in oracle]
            assert repr(got) == repr(oracle), (s_num, q, shift)

    def test_smallest_residue_needs_the_largest_shift(self):
        # no residue a/q needs a larger shift than the smallest one, 1/q
        rng = random.Random(5)
        for _ in range(40):
            s = complex(rng.uniform(-0.99, 3.0), rng.choice([0.0, rng.uniform(-1000.0, 1000.0)]))
            q = rng.randint(1, 450)
            residues = sorted({1, 2, q // 2 or 1, q - 1 or 1, q})
            shifts = [_hurwitz(s, [a / q], 1e-10)[1] for a in residues]
            assert max(shifts) == shifts[0], (s, q, shifts)
            assert _hurwitz(s, [a / q for a in residues], 1e-10)[1] == shifts[0]

    def test_residues_of_two_shift_classes_share_the_larger(self):
        # the shift is ceil(w - x) for the w that meets tol: here the largest
        # units a/q alone would need one term fewer than 1/q; every residue
        # runs at the shift of 1/q and n_used says so
        chi = enumerate_characters(168)[3]
        s = complex(0.5, 454.65)
        units = [a for a, v in enumerate(chi.values) if v]
        alone = {a: _hurwitz(s, [a / 168], 1e-10)[1] for a in units}
        ev = evaluate(chi, s)
        assert ev.n_used == alone[1] == max(alone.values())
        assert min(alone.values()) == ev.n_used - 1
        mpmath.mp.dps = 30
        s_mp = mpmath.mpc(s.real, s.imag)
        ref = mpmath.mpf(168) ** (-s_mp) * mpmath.fsum(
            complex(_to_number(v)) * mpmath.zeta(s_mp, mpmath.mpf(a) / 168)
            for a, v in enumerate(chi.values)
            if v
        )
        assert abs(ev.value - complex(ref)) <= ev.err_estimate


class TestShiftFromTheEstimate:
    """The shift is solved from the kernel's own first-omitted-term estimate:
    the smallest shift >= 20 that brings it to max(tol, 5e-16) at min(xs)."""

    TOLS = (1e-4, 1e-10, 1e-13)

    def test_every_residue_meets_the_target(self):
        rng = random.Random(20261019)
        for _ in range(60):
            s = complex(rng.uniform(-0.99, 3.0), rng.uniform(-1000.0, 1000.0))
            q = rng.randint(1, 450)
            tol = rng.choice(self.TOLS)
            xs = sorted({1 / q, *(rng.randint(1, q) / q for _ in range(4))})
            pairs, shift = _hurwitz(s, xs, tol)
            for x, (value, err) in zip(xs, pairs):
                part = truncation_part(value, err, shift)
                assert part <= max(tol, 5e-16), (s, q, tol, x, shift, part)

    def test_one_term_fewer_would_miss_the_target(self):
        rng = random.Random(20261020)
        for _ in range(60):
            s = complex(rng.uniform(-0.99, 3.0), rng.uniform(-1000.0, 1000.0))
            q = rng.randint(1, 450)
            tol = rng.choice(self.TOLS)
            _, shift = _hurwitz(s, [1 / q], tol)
            if shift == 20:
                continue
            _, trunc, _ = one_x_kernel(s, 1 / q, shift - 1, 6)
            assert trunc > max(tol, 5e-16), (s, q, tol, shift, trunc)

    def test_real_axis_shift_is_the_default_at_every_tolerance(self):
        rng = random.Random(20261021)
        points = [1.0, 0.0, -0.99, 0.5, 10.0]
        points += [rng.uniform(-0.999, 10.0) for _ in range(2000)]
        for sigma in points:
            q = rng.randint(1, 1000)
            tol = 10.0 ** rng.uniform(-300.0, 0.0)
            assert _hurwitz(complex(sigma), [1 / q], tol)[1] == 20, (sigma, q, tol)

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
        assert not result.found_sign_change
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
        assert result.found_sign_change
        assert len(result.brackets) == 1
        bracket = result.brackets[0]
        assert bracket.lo < root_at < bracket.hi
        assert abs(bracket.root - root_at) < 1e-9
