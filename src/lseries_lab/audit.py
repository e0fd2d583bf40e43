"""Truncation-evidence audit of the series-geometry claims.

``run_audit`` re-derives each claim below at several truncation points and
attaches a verdict backed by the recorded evidence.  Claims never raise out
of the audit: expected per-claim failures (isotropic vectors, zero profile
area) become notes on that claim only.  Every truncation quantity is a sum
over n <= N, so each series (factor vectors, step profile, S_N, V_N, W_N,
the chi^4 sum) is walked once, up to the largest N, and each smaller
truncation reads its prefix.

Claim registry (fixed order, fixed IDs -- these are the wire format):

* EQ2_RECONSTRUCT    -- amplitude-variant factor vectors reproduce the
                        truncation sum at every N (identity-exact).
* EQ3_RECONSTRUCT    -- same for the phase variant.
* EQ45_FACTORIZATION -- dot = norm * norm * cosine for both variants'
                        factor pairs (exact by the cosine's definition, so
                        the evidence is the rounding of the recombination).
* PHASE_SUM_DIVERGES_T0   -- at t = 0 the bare phase-cosine sum counts
                        terms: sum(cos(0 ln n), n <= N) = N exactly, so it
                        grows linearly with slope 1 (the 2it-exponent
                        variant of the phase radical).
* CHI4_PHASE_SUM_DIVERGES -- at t = 0 the chi^4-weighted phase sum counts
                        units: sum(chi(n)^4, n <= N) grows linearly with
                        slope phi(q)/q (the 4ti-exponent variant).
* PAPPUS_IDENTITY    -- V = 2 pi eta S holds at every truncation.
* TRANSFORMED_EQ_POSITIVITY -- W_N = sum(chi(n)^2 n^-2 sigma) at t = 0 is
                        strictly positive and nondecreasing for real chi.
* NONVANISHING_SCAN  -- a default grid scan of (0, 1) finds no sign change
                        (evidence: grid min of |L| and its sigma).

Growth verdicts require at least three truncation points; when the caller
supplies fewer, the growth claims extend the list internally (noted on the
claim).  Linear growth is classified by a least-squares fit whose maximum
relative misfit must stay below 1e-6.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from math import gcd, isfinite

from .cgeom import bilinear_dot
from .characters import DirichletCharacter, _factorize, enumerate_real_characters
from .lseries import ScanGridError, _running_sums, _scan_result, scan_zeros
from .resolution import (
    AMPLITUDE_CHI,
    PHASE_CHI,
    VARIANTS,
    IsotropicVectorError,
    build_vectors,
    formal_cosine,
    formal_norm,
    phase_series_sums,
)
from .rotation import ZeroAreaError, _pappus_report, step_profile

__all__ = [
    "CLAIM_IDS",
    "ClaimResult",
    "SurveyRow",
    "VERDICTS",
    "nonvanishing_survey",
    "run_audit",
]

CLAIM_IDS = (
    "EQ2_RECONSTRUCT",
    "EQ3_RECONSTRUCT",
    "EQ45_FACTORIZATION",
    "PHASE_SUM_DIVERGES_T0",
    "CHI4_PHASE_SUM_DIVERGES",
    "PAPPUS_IDENTITY",
    "TRANSFORMED_EQ_POSITIVITY",
    "NONVANISHING_SCAN",
)

VERDICT_IDENTITY_EXACT = "identity-exact"
VERDICT_HOLDS_AT_TRUNCATION = "holds-at-truncation"
VERDICT_DIVERGES_LINEAR = "diverges-linear"
VERDICT_POSITIVE_DEFINITE = "positive-definite"
VERDICT_NO_ZERO_FOUND = "no-zero-found"
# Extra tag for the (desk-scale unreachable) branch where a scan does find a
# sign change; the closed verdict set has no honest tag for it.
VERDICT_SIGN_CHANGE_FOUND = "sign-change-found"

VERDICTS = (
    VERDICT_IDENTITY_EXACT,
    VERDICT_HOLDS_AT_TRUNCATION,
    VERDICT_DIVERGES_LINEAR,
    VERDICT_POSITIVE_DEFINITE,
    VERDICT_NO_ZERO_FOUND,
    VERDICT_SIGN_CHANGE_FOUND,
)

_IDENTITY_REL_TOL = 1e-12
_PAPPUS_REL_TOL = 1e-9
_FIT_REL_MISFIT = 1e-6
_DEFAULT_GRID_STEP = 0.01


@dataclass(frozen=True)
class ClaimResult:
    """One audited claim: inputs echoed, per-truncation evidence rows,
    verdict tag, and a free-text note for anything noteworthy."""

    claim_id: str
    inputs: dict
    evidence: list
    verdict: str
    note: str = ""

    def to_json_dict(self) -> dict:
        def jsonable(x):
            if isinstance(x, complex):
                return {"re": x.real, "im": x.imag}
            if isinstance(x, (list, tuple)):
                return [jsonable(v) for v in x]
            if isinstance(x, dict):
                return {k: jsonable(v) for k, v in x.items()}
            return x

        return {
            "claim_id": self.claim_id,
            "inputs": jsonable(self.inputs),
            "evidence": jsonable(self.evidence),
            "verdict": self.verdict,
            "note": self.note,
        }


def _growth_truncations(truncations) -> tuple:
    """Extend to >= 3 points for growth fits: prepend the next decade down
    when possible (cheap), otherwise append the next decade up."""
    ns = list(truncations)
    while len(ns) < 3:
        if ns[0] >= 10:
            ns.insert(0, ns[0] // 10)
        else:
            ns.append(ns[-1] * 10)
    return tuple(ns), len(ns) != len(truncations)


def _relative(residual: float, scale: complex) -> float:
    return residual / max(1.0, abs(scale))


def _identity_verdict(rels, tol: float, notes: list) -> str:
    """identity-exact when no checked relative residual (None = unchecked)
    exceeds `tol`; otherwise holds-at-truncation, noting the worst one."""
    worst = max([0.0, *(rel for rel in rels if rel is not None)])
    if worst <= tol:
        return VERDICT_IDENTITY_EXACT
    notes.append(f"max relative residual {worst:.3e}")
    return VERDICT_HOLDS_AT_TRUNCATION


def _growth_claim(claim_id, inputs, evidence, expected, padded) -> ClaimResult:
    """diverges-linear when the least-squares line through the (n, total)
    evidence rows misses every total by less than _FIT_REL_MISFIT relative."""
    xs = [row[0] for row in evidence]
    ys = [row[1] for row in evidence]
    fit = statistics.linear_regression(xs, ys)
    misfit = max(
        abs(fit.slope * x + fit.intercept - y) / max(abs(y), 1e-300)
        for x, y in zip(xs, ys)
    )
    linear = misfit < _FIT_REL_MISFIT
    note = f"fit slope {fit.slope:.12g} (expected {expected}), intercept {fit.intercept:.3g}"
    if padded:
        note += "; truncation list extended to 3 points for the growth fit"
    if not linear:
        note += f"; fit misfit {misfit:.3e} exceeds {_FIT_REL_MISFIT}"
    return ClaimResult(
        claim_id=claim_id,
        inputs=inputs,
        evidence=evidence,
        verdict=VERDICT_DIVERGES_LINEAR if linear else VERDICT_HOLDS_AT_TRUNCATION,
        note=note,
    )


def _claim_reconstruct(claim_id, chi, s, truncations, variant, dots, series) -> ClaimResult:
    evidence = [
        (n, _relative(abs(lhs - rhs), rhs))
        for n, lhs, rhs in zip(truncations, dots[variant], series)
    ]
    notes = []
    verdict = _identity_verdict((rel for _, rel in evidence), _IDENTITY_REL_TOL, notes)
    return ClaimResult(
        claim_id=claim_id,
        inputs={"q": chi.modulus, "s": [s.real, s.imag], "variant": variant},
        evidence=evidence,
        verdict=verdict,
        note="; ".join(notes),
    )


def _claim_factorization(chi, s, truncations, pairs, dots) -> ClaimResult:
    evidence = []
    notes = []
    for i, n in enumerate(truncations):
        row = [n]
        for variant in VARIANTS:
            a_vec, p_vec = pairs[variant][i]
            try:
                cosine = formal_cosine(a_vec, p_vec)
            except IsotropicVectorError as exc:
                notes.append(f"N={n} {variant}: {exc}")
                row.append(None)
                continue
            dot = dots[variant][i]
            product = formal_norm(a_vec) * formal_norm(p_vec) * cosine
            row.append(_relative(abs(dot - product), dot))
        evidence.append(tuple(row))
    verdict = _identity_verdict(
        (rel for row in evidence for rel in row[1:]), _IDENTITY_REL_TOL, notes
    )
    return ClaimResult(
        claim_id="EQ45_FACTORIZATION",
        inputs={"q": chi.modulus, "s": [s.real, s.imag], "variants": list(VARIANTS)},
        evidence=evidence,
        verdict=verdict,
        note="; ".join(notes),
    )


def _claim_phase_sum(truncations) -> ClaimResult:
    ns, padded = _growth_truncations(truncations)
    evidence = [(n, *phase_series_sums(0.0, n)) for n in ns]
    return _growth_claim("PHASE_SUM_DIVERGES_T0", {"t": 0.0}, evidence, "1", padded)


def _claim_chi4_sum(chi, truncations) -> ClaimResult:
    ns, padded = _growth_truncations(truncations)
    q = chi.modulus
    # chi(n)^4 at t = 0 is exactly 1 on units when the value order divides 4
    # (always for real chi), so the total counts units; otherwise the
    # evidence records its real part.
    totals = _running_sums(chi, 0j, ns, 4)
    evidence = [(n, total.real) for n, total in zip(ns, totals)]
    expected_slope = sum(1 for a in range(q) if gcd(a, q) == 1) / q
    return _growth_claim(
        "CHI4_PHASE_SUM_DIVERGES",
        {"q": q, "t": 0.0},
        evidence,
        f"phi(q)/q = {expected_slope:.12g}",
        padded,
    )


def _claim_pappus(chi, s, truncations) -> ClaimResult:
    heights = step_profile(chi, s, truncations[-1])
    evidence = []
    notes = []
    for n, square_sum in zip(truncations, _running_sums(chi, s, truncations, 2)):
        try:
            evidence.append((n, _pappus_report(heights[:n], square_sum).relative_residual))
        except ZeroAreaError as exc:
            notes.append(f"N={n}: {exc}")
            evidence.append((n, None))
    if all(rel is None for _, rel in evidence):
        verdict = VERDICT_HOLDS_AT_TRUNCATION
        notes.append("no truncation was checkable (all had zero profile area)")
    else:
        verdict = _identity_verdict((rel for _, rel in evidence), _PAPPUS_REL_TOL, notes)
    return ClaimResult(
        claim_id="PAPPUS_IDENTITY",
        inputs={"q": chi.modulus, "s": [s.real, s.imag]},
        evidence=evidence,
        verdict=verdict,
        note="; ".join(notes),
    )


def _claim_positivity(chi, s, truncations) -> ClaimResult:
    # The positivity fact is about the real axis; audit it at (sigma, 0).
    ws = [w.real for w in _running_sums(chi, complex(s.real, 0.0), truncations, 2)]
    positive = all(w > 0.0 for w in ws)
    nondecreasing = not any(b < a for a, b in zip(ws, ws[1:]))
    notes = []
    if not chi.is_real:
        notes.append("character is not real; positivity is not guaranteed")
    if s.imag != 0.0:
        notes.append("audited at t = 0 (positivity is a real-axis fact)")
    ok = positive and nondecreasing and chi.is_real
    verdict = VERDICT_POSITIVE_DEFINITE if ok else VERDICT_HOLDS_AT_TRUNCATION
    if not positive:
        notes.append("some W_N was not strictly positive")
    if not nondecreasing:
        notes.append("W_N decreased between truncations")
    return ClaimResult(
        claim_id="TRANSFORMED_EQ_POSITIVITY",
        inputs={"q": chi.modulus, "sigma": s.real},
        evidence=list(zip(truncations, ws)),
        verdict=verdict,
        note="; ".join(notes),
    )


def _truncation_claims(chi, s, truncations) -> list:
    """The seven truncation claims, in registry order.  Each series is made
    once, at the largest N, and every smaller truncation reads its prefix.
    The tables die with this frame, before the zero scan runs: an exception
    raised there would otherwise keep them alive in its traceback."""
    pairs, dots = {}, {}
    for variant in VARIANTS:
        a_vec, p_vec = build_vectors(chi, s, truncations[-1], variant)
        pairs[variant] = [(a_vec[:n], p_vec[:n]) for n in truncations]
        dots[variant] = [bilinear_dot(*pair) for pair in pairs[variant]]
    series = _running_sums(chi, s, truncations)
    return [
        _claim_reconstruct("EQ2_RECONSTRUCT", chi, s, truncations, AMPLITUDE_CHI, dots, series),
        _claim_reconstruct("EQ3_RECONSTRUCT", chi, s, truncations, PHASE_CHI, dots, series),
        _claim_factorization(chi, s, truncations, pairs, dots),
        _claim_phase_sum(truncations),
        _claim_chi4_sum(chi, truncations),
        _claim_pappus(chi, s, truncations),
        _claim_positivity(chi, s, truncations),
    ]


def _scan_grid(grid_step: float) -> tuple:
    """(lo, hi, points): sigma = grid_step, 2 * grid_step, ... up to ~1 - grid_step."""
    if not grid_step > 0:
        raise ValueError(f"grid step must be > 0, got {grid_step}")
    if not isfinite(grid_step):
        raise ValueError(f"grid step must be finite, got {grid_step}")
    points = round((1.0 - 2.0 * grid_step) / grid_step) + 1
    if points < 2:
        raise ScanGridError(f"need at least 2 grid points, got {points}")
    return grid_step, grid_step + (points - 1) * grid_step, points


def _claim_nonvanishing(chi, grid_step, grid) -> ClaimResult:
    result = scan_zeros(chi, *grid)
    evidence = [
        ("min_abs", result.min_abs),
        ("argmin_sigma", result.argmin_sigma),
        ("grid_points", len(result.sigmas)),
        ("sign_changes", len(result.brackets)),
    ]
    if result.found_sign_change:
        verdict = VERDICT_SIGN_CHANGE_FOUND
        note = "; ".join(
            f"sign change in [{b.lo:.6f}, {b.hi:.6f}], root near {b.root}"
            for b in result.brackets
        )
    else:
        verdict = VERDICT_NO_ZERO_FOUND
        note = f"grid min |L| = {result.min_abs:.6e} at sigma = {result.argmin_sigma:.4f}"
    return ClaimResult(
        claim_id="NONVANISHING_SCAN",
        inputs={"q": chi.modulus, "grid_step": grid_step},
        evidence=evidence,
        verdict=verdict,
        note=note,
    )


def run_audit(
    chi: DirichletCharacter,
    s,
    truncations,
    *,
    grid_step: float = _DEFAULT_GRID_STEP,
) -> list[ClaimResult]:
    """Audit all eight claims for (chi, s) at the given truncation points.

    `truncations` must be nonempty and strictly increasing.  Results come
    back in registry order, one ClaimResult per claim, with per-claim notes
    for any expected failure (isotropic vector, zero profile area) -- a
    single claim's trouble never aborts the audit.  The zero scan is
    ``scan_zeros`` on the `grid_step` grid.  A point with a NaN or infinite
    part raises ValueError from the term kernel, and no claim is returned.
    """
    s = complex(s)
    truncations = tuple(int(n) for n in truncations)
    if not truncations:
        raise ValueError("need at least one truncation point")
    if any(b <= a for a, b in zip(truncations, truncations[1:])) or truncations[0] < 1:
        raise ValueError(f"truncations must be strictly increasing and >= 1, got {truncations}")
    grid = _scan_grid(grid_step)  # checks the step before any series is walked
    claims = _truncation_claims(chi, s, truncations)
    return claims + [_claim_nonvanishing(chi, grid_step, grid)]


@dataclass(frozen=True)
class SurveyRow:
    """One surveyed character: grid minimum of |L| on (0, 1), where it is
    attained, and how many grid sign changes were seen (0 everywhere at desk
    scale)."""

    q: int
    char_index: int
    min_abs: float
    argmin_sigma: float
    sign_changes: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _inducing(chi, index, primitive) -> tuple:
    """(chi*, its scan) for the stored primitive chi* mod f = conductor
    inducing chi: the one agreeing with chi on every unit mod q."""
    f = chi.conductor
    for star, scan in primitive.get(f, ()):
        if all(v == star.values[n % f] for n, v in enumerate(chi.values) if v):
            return star, scan
    raise ArithmeticError(
        f"no stored primitive character of conductor {f} induces character {index} "
        f"mod {chi.modulus}"
    )


def _induced_pairs(chi, star, star_pairs, sigmas) -> list:
    """Grid values of chi from those of the primitive chi* mod f inducing it:
    L(sigma, chi) = L(sigma, chi*) * prod(1 - chi*(p) p^-sigma, p | q, p not | f).
    Each factor lies in (0, 2) for sigma > 0, so signs and brackets carry over."""
    f = star.modulus
    removed = [(p, star.values[p % f]) for p, _ in _factorize(chi.modulus) if f % p]
    pairs = []
    for sigma, (value, err) in zip(sigmas, star_pairs):
        factor = 1.0
        for p, c in removed:
            factor *= 1.0 - c * p ** -sigma
        pairs.append((value * factor, err * factor))
    return pairs


def nonvanishing_survey(q_max: int, grid_step: float = _DEFAULT_GRID_STEP) -> list[SurveyRow]:
    """Scan every real non-principal character with modulus q <= q_max.

    Row order is deterministic: ascending (q, index in the real character
    enumeration).  Each row records the grid minimum of |L(sigma, chi)| on
    the grid_step grid in (0, 1) and any sign changes (refined by bisection,
    as in ``scan_zeros``, if one ever appears).

    Primitive characters (conductor q) are scanned by ``scan_zeros``.  An
    imprimitive character (conductor f < q) takes the grid values of the
    primitive chi* mod f that induces it, scanned earlier in the same call,
    times the Euler factors of the primes dividing q but not f, with no
    Hurwitz call of its own: its values differ from the direct ``scan_zeros``
    ones by rounding, well inside their error estimates.  Bisection of any
    sign change evaluates the character directly.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    grid = _scan_grid(grid_step)
    primitive = {}  # conductor -> [(chi*, its ScanResult)], for this call only
    rows = []
    for q in range(1, q_max + 1):
        for index, chi in enumerate(enumerate_real_characters(q)):
            if chi.is_principal:
                continue
            if chi.conductor == q:
                result = scan_zeros(chi, *grid)
                primitive.setdefault(q, []).append((chi, result))
            else:
                star, scan = _inducing(chi, index, primitive)
                star_pairs = zip(scan.values, scan.err_estimates)
                pairs = _induced_pairs(chi, star, star_pairs, scan.sigmas)
                result = _scan_result(chi, scan.sigmas, pairs)
            rows.append(
                SurveyRow(
                    q=q,
                    char_index=index,
                    min_abs=result.min_abs,
                    argmin_sigma=result.argmin_sigma,
                    sign_changes=len(result.brackets),
                )
            )
    return rows
