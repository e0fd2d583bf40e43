"""Acceptance gate: the eight shipping criteria, one test and one PASS/FAIL
line each (visible with ``pytest -v -s tests/test_acceptance.py``).

Every tolerance and time budget is pinned here, independent of the module
tests.  Golden constants are hard-coded in this file so a corrupted library
table cannot vouch for itself.
"""

import math
import random
import statistics
import time

from lseries_lab.audit import nonvanishing_survey, run_audit
from lseries_lab.cgeom import (
    APPENDIX_POINTS,
    bilinear_dot,
    cosine_theorem_check,
    formal_norm_sq,
    principal_sqrt,
    triangle_area,
    verify_appendix,
)
from lseries_lab.characters import enumerate_characters, enumerate_real_characters
from lseries_lab.lseries import evaluate, partial_sum
from lseries_lab.resolution import VARIANTS, build_vectors, phase_series_sums
from lseries_lab.rotation import ZeroAreaError, pappus_check

# Independent high-precision constants (30-digit values, rounded to double).
PI_OVER_4 = 0.78539816339744830962
CATALAN = 0.91596559417721901505
PI2_OVER_6 = 1.6449340668482264365

CHI0_1 = enumerate_real_characters(1)[0]
CHI4 = enumerate_real_characters(4)[1]

# The published worked-example values, retyped here (not imported).
GOLDEN = {
    1: {
        "norm_squares": (2 - 8j, 7 + 6j, -9 + 2j),
        "dots": (9 - 2j, -2 + 8j),
        "area": (0.5, -15 - 8j),
    },
    2: {
        "norm_squares": (-24 + 0j, -2 - 2j, -10 + 2j),
        "dots": (-8 - 2j, 6 + 0j),
        "area": (1.0, -3 + 4j),
    },
    3: {
        "norm_squares": (104 - 498j, -105 - 110j, 135 - 106j),
        "dots": (-68 - 251j, -37 + 141j),
        "area": (0.5, -7323 + 6714j),
    },
}


def _conclude(label, ok, detail=""):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{label} failed: {detail}"


def _rel(delta, *scales):
    return abs(delta) / max(1.0, *(abs(s) for s in scales))


def _minus(b, a):
    """b - a componentwise, for vectors held as plain tuples."""
    return tuple(y - x for y, x in zip(b, a))


def test_01_appendix_golden_suite():
    started = time.perf_counter()
    worst = 0.0
    for example, golden in GOLDEN.items():
        a, b, c = APPENDIX_POINTS[example]
        ab, ac, bc = _minus(b, a), _minus(c, a), _minus(c, b)
        computed = {
            "norm_squares": (formal_norm_sq(ab), formal_norm_sq(ac), formal_norm_sq(bc)),
            "dots": (bilinear_dot(ab, ac), bilinear_dot(ac, bc)),
        }
        for key in ("norm_squares", "dots"):
            for got, want in zip(computed[key], golden[key]):
                worst = max(worst, _rel(got - want, want))
        coef, radicand = golden["area"]
        want_area = coef * principal_sqrt(radicand)
        worst = max(worst, _rel(triangle_area(a, b, c) - want_area, want_area))
    table_ok = all(check.ok for check in verify_appendix())
    elapsed = time.perf_counter() - started
    _conclude(
        "appendix golden suite (3 worked examples, rel <= 1e-12, < 1 s)",
        worst <= 1e-12 and table_ok and elapsed < 1.0,
        f"worst rel {worst:.2e}, table ok {table_ok}, {elapsed:.2f} s",
    )


def test_02_triangle_identities_randomized():
    rng = random.Random(52001)
    started = time.perf_counter()
    worst_cosine = 0.0
    worst_gram = 0.0
    for _ in range(10_000):
        dim = rng.randint(2, 5)
        a, b, c = (
            tuple(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(dim))
            for _ in range(3)
        )
        lhs_half, dot, residual = cosine_theorem_check(a, b, c)
        worst_cosine = max(worst_cosine, _rel(residual, dot, lhs_half))
        ab, ac = _minus(b, a), _minus(c, a)
        area = triangle_area(a, b, c)
        rhs = formal_norm_sq(ab) * formal_norm_sq(ac)
        gram_residual = 4 * area * area + dot * dot - rhs
        worst_gram = max(worst_gram, _rel(gram_residual, rhs, dot * dot))
    elapsed = time.perf_counter() - started
    _conclude(
        "cosine-theorem + Gram identities (10^4 random triangles dims 2-5, "
        "rel <= 1e-12, < 5 s)",
        worst_cosine <= 1e-12 and worst_gram <= 1e-12 and elapsed < 5.0,
        f"worst cosine rel {worst_cosine:.2e}, worst Gram rel {worst_gram:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_03_classical_l_values():
    cases = [
        ("L(1, chi mod 4) = pi/4", CHI4, 1.0, PI_OVER_4),
        ("L(2, chi mod 4) = Catalan", CHI4, 2.0, CATALAN),
        ("L(2, principal mod 1) = pi^2/6", CHI0_1, 2.0, PI2_OVER_6),
    ]
    worst_err = 0.0
    worst_time = 0.0
    for _, chi, s, want in cases:
        started = time.perf_counter()
        value = evaluate(chi, s).value
        worst_time = max(worst_time, time.perf_counter() - started)
        worst_err = max(worst_err, abs(value - want))
    _conclude(
        "classical L-values (pi/4, Catalan, pi^2/6 within 1e-8, each < 0.1 s)",
        worst_err < 1e-8 and worst_time < 0.1,
        f"worst abs err {worst_err:.2e}, worst call {worst_time * 1000:.1f} ms",
    )


def test_04_nonvanishing_survey_q50():
    started = time.perf_counter()
    rows = nonvanishing_survey(50, grid_step=0.01)
    elapsed = time.perf_counter() - started
    # independent count: real characters mod q <-> square roots of 1 in the
    # unit group; drop one principal per modulus
    expected_rows = sum(
        sum(1 for x in range(1, q + 1) if math.gcd(x, q) == 1 and x * x % q == 1 % q) - 1
        for q in range(1, 51)
    )
    min_abs = min(row.min_abs for row in rows)
    sign_changes = sum(row.sign_changes for row in rows)
    _conclude(
        "non-vanishing survey (real non-principal q <= 50, grid 0.01..0.99: "
        "no sign change, min |L| > 1e-6, < 60 s)",
        len(rows) == expected_rows
        and sign_changes == 0
        and min_abs > 1e-6
        and elapsed < 60.0,
        f"{len(rows)} characters (expected {expected_rows}), "
        f"min |L| {min_abs:.3e}, sign changes {sign_changes}, {elapsed:.1f} s",
    )


def test_05_pappus_identity():
    started = time.perf_counter()
    pinned = pappus_check(CHI4, 0.7, 1000)
    worst = pinned.relative_residual

    rng = random.Random(52005)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 2000, "case generation stalled"
        q = rng.randint(1, 12)
        chi = rng.choice(enumerate_characters(q))
        s = complex(rng.uniform(0.3, 2.5), 0.0 if rng.random() < 0.5 else rng.uniform(-3, 3))
        n_rects = rng.randint(5, 400)
        if abs(partial_sum(chi, s, n_rects)) < 0.05:  # S_N bounded away from 0
            continue
        try:
            report = pappus_check(chi, s, n_rects)
        except ZeroAreaError:
            continue
        worst = max(worst, report.relative_residual)
        accepted += 1
    elapsed = time.perf_counter() - started
    _conclude(
        "Pappus identity (pinned chi mod 4, s=0.7, N=1000 plus 100 randomized "
        "cases, rel <= 1e-9, < 5 s)",
        worst <= 1e-9 and elapsed < 5.0,
        f"worst rel residual {worst:.2e}, {elapsed:.2f} s",
    )


def test_06_resolution_reconstruction():
    rng = random.Random(52006)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        q = rng.randint(1, 15)
        chi = rng.choice(enumerate_characters(q))
        sigma = rng.uniform(0.1, 3.0)
        t = 0.0 if rng.random() < 1 / 3 else rng.uniform(-20.0, 20.0)
        n_terms = min(10_000, max(1, int(10 ** rng.uniform(0.0, 4.0))))
        s = complex(sigma, t)
        rhs = partial_sum(chi, s, n_terms)
        for variant in VARIANTS:
            lhs = bilinear_dot(*build_vectors(chi, s, n_terms, variant))
            worst = max(worst, _rel(lhs - rhs, rhs))
    elapsed = time.perf_counter() - started
    _conclude(
        "resolution reconstruction (both variants, 100 random (chi, s), "
        "N <= 1e4, rel <= 1e-12, < 5 s)",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst rel residual {worst:.2e}, {elapsed:.2f} s",
    )


def test_07_divergence_audit():
    started = time.perf_counter()
    count_exact = all(
        phase_series_sums(0.0, n) == (float(n), 0.0) for n in (10, 100, 1000)
    )
    audited = run_audit(CHI4, 0.5, [10, 100, 1000], grid_step=0.2)
    phase_claim = next(c for c in audited if c.claim_id == "PHASE_SUM_DIVERGES_T0")
    audit_exact = all(cos_sum == float(n) for n, cos_sum, _ in phase_claim.evidence)

    worst_slope_err = 0.0
    for q in (3, 4, 5, 8):
        chi = enumerate_real_characters(q)[1]
        results = run_audit(chi, 0.5, [1000, 2000, 4000], grid_step=0.2)
        claim = next(c for c in results if c.claim_id == "CHI4_PHASE_SUM_DIVERGES")
        xs = [n for n, _ in claim.evidence]
        ys = [total for _, total in claim.evidence]
        slope = statistics.linear_regression(xs, ys).slope
        phi_over_q = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1) / q
        worst_slope_err = max(worst_slope_err, abs(slope - phi_over_q))
    elapsed = time.perf_counter() - started
    _conclude(
        "divergence audit (cos sums count N exactly for N in {10,100,1000}; "
        "chi^4 slope = phi(q)/q within 1e-3 for q in {3,4,5,8}; < 1 s)",
        count_exact and audit_exact and worst_slope_err <= 1e-3 and elapsed < 1.0,
        f"exact counts {count_exact and audit_exact}, "
        f"worst slope err {worst_slope_err:.2e}, {elapsed:.2f} s",
    )


def test_08_evaluate_vs_partial_sum_consistency():
    worst = 0.0
    for q in range(1, 11):
        for chi in enumerate_characters(q):
            delta = abs(evaluate(chi, 3.0).value - partial_sum(chi, 3.0, 10_000))
            worst = max(worst, delta)
    _conclude(
        "continuation consistency (|evaluate - partial_sum| < 1e-8 at s=3, "
        "N=1e4, q <= 10)",
        worst < 1e-8,
        f"worst abs delta {worst:.2e}",
    )
