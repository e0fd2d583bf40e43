"""Independent output checks for the benchmark workloads.

Nothing here calls lseries_lab.  Real characters are rebuilt by brute force
over the unit group, L-values come from mpmath's Hurwitz zeta, truncation
sums are summed again with ``cmath.exp`` instead of the library's
cos/sin split, and CLI output is parsed back from all three formats.  Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json
import math
from fractions import Fraction
from itertools import product
from math import gcd

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
IDENTITY_TOL = 1e-12
PAPPUS_TOL = 1e-9
SUM_TOL = 1e-9
FIT_MISFIT = 1e-6
MIN_ABS_FLOOR = 1e-6


@functools.cache
def phi(q: int) -> int:
    return sum(1 for a in range(q) if gcd(a, q) == 1)


@functools.cache
def real_character_tables(q: int) -> tuple:
    """All real characters mod q as value tuples, by brute force: pick
    generators of (Z/qZ)^* greedily, try every sign on them, keep the
    assignments that extend to a homomorphism.  Ordered principal first,
    then lexicographically by table."""
    units = [a for a in range(q) if gcd(a, q) == 1]
    gens, reached = [], {1 % q}
    for a in units:
        if a not in reached:
            gens.append(a)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = x * g % q
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
    tables = set()
    for signs in product((1, -1), repeat=len(gens)):
        value = {1 % q: 1}
        frontier = [1 % q]
        while frontier:
            x = frontier.pop()
            for g, sign in zip(gens, signs):
                y = x * g % q
                if y not in value:
                    value[y] = value[x] * sign
                    frontier.append(y)
        if all(value[a * b % q] == value[a] * value[b] for a in units for b in units):
            tables.add(tuple(value.get(n, 0) for n in range(q)))
    principal = tuple(1 if gcd(n, q) == 1 else 0 for n in range(q))
    return tuple(sorted(tables, key=lambda t: (t != principal, t)))


def complex_values(values) -> list:
    """A library value table (0, +/-1 or (order, exponent)) as complex numbers."""
    return [
        complex(v) if isinstance(v, int) else cmath.exp(2j * math.pi * v[1] / v[0])
        for v in values
    ]


def _rotation(v) -> Fraction:
    if isinstance(v, int):
        return Fraction(0) if v == 1 else Fraction(1, 2)
    return Fraction(v[1], v[0])


def check_table(q: int, values, pairs) -> list:
    """Support on the units, chi(1) = 1, and exact multiplicativity on `pairs`."""
    if len(values) != q:
        return [f"table length {len(values)} != {q}"]
    problems = [f"chi({n}) support wrong mod {q}" for n in range(q) if (values[n] == 0) != (gcd(n, q) != 1)]
    if values[1 % q] != 1:
        problems.append("chi(1) != 1")
    for m, n in pairs:
        u, v, w = values[m], values[n], values[m * n % q]
        if 0 in (u, v, w):
            continue
        if (_rotation(u) + _rotation(v) - _rotation(w)) % 1 != 0:
            problems.append(f"not multiplicative at ({m}, {n}) mod {q}")
            break
    return problems


def truncation_sums(values, s: complex, n_terms: int) -> tuple:
    """(S_N, V_N, W_N) with S = sum chi(n) n^-s, V = pi sum chi(n)^2 n^-2s and
    W = sum chi(n)^2 n^-2 sigma, summed with cmath.exp."""
    q = len(values)
    chi = complex_values(values)
    s_sum = v_sum = w_sum = 0j
    for n in range(1, n_terms + 1):
        c = chi[n % q]
        if c == 0:
            continue
        log_n = math.log(n)
        term = c * cmath.exp(-s * log_n)
        s_sum += term
        v_sum += term * term
        w_sum += c * c * math.exp(-2.0 * s.real * log_n)
    return s_sum, math.pi * v_sum, w_sum


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- mpmath L-values -------------------------------------------------------


def l_value_mp(values, s: complex) -> complex:
    """L(s, chi) = q^-s sum chi(a) zeta(s, a/q); at s = 1 (non-principal chi)
    L(1, chi) = -(1/q) sum chi(a) digamma(a/q)."""
    import mpmath

    mpmath.mp.dps = 30
    q = len(values)
    chi = complex_values(values)
    if s == 1:
        total = sum(mpmath.mpc(chi[a % q]) * mpmath.digamma(mpmath.mpf(a) / q) for a in range(1, q + 1) if chi[a % q])
        return complex(-total / q)
    s_mp = mpmath.mpc(s.real, s.imag)
    total = sum(mpmath.mpc(chi[a % q]) * mpmath.zeta(s_mp, mpmath.mpf(a) / q) for a in range(1, q + 1) if chi[a % q])
    return complex(mpmath.power(q, -s_mp) * total)


# --- CLI output parsing -------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Read the CLI's 'a+bi' form (the sign split skips exponent signs)."""
    body = text.strip()
    if not body.endswith("i"):
        raise ValueError(f"not a complex cell: {text!r}")
    body = body[:-1]
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:]))
    raise ValueError(f"not a complex cell: {text!r}")


def parse_rows(text: str, fmt: str, columns: int) -> list:
    """Data rows of a csv or table CLI output, each a list of cells."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:
        lines = text.splitlines()[2:]
        rows = [line.split(None, columns - 1) for line in lines if line.strip()]
    return rows


def _json_complex(d) -> complex:
    return complex(d["re"], d["im"])


def check_pappus_output(text: str, fmt: str, values, s: complex, n_terms: int) -> list:
    """S and V against the oracle sums, and the Pappus residual bound."""
    try:
        if fmt == "json":
            d = json.loads(text)
            area, volume, eta = (_json_complex(d[k]) for k in ("S", "V", "eta"))
            residual = float(d["residual"])
        else:
            (row,) = parse_rows(text, fmt, 9)
            area, volume, eta = (parse_complex(row[i]) for i in (4, 5, 7))
            residual = float(row[8])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable pappus output: {exc}"]
    return check_pappus_report(area, volume, eta, residual, values, s, n_terms)


def check_pappus_report(area, volume, eta, residual, values, s, n_terms) -> list:
    s_or, v_or, _ = truncation_sums(values, s, n_terms)
    problems = []
    if not _close(area, s_or, SUM_TOL):
        problems.append(f"S = {area} but oracle {s_or}")
    if not _close(volume, v_or, SUM_TOL):
        problems.append(f"V = {volume} but oracle {v_or}")
    scale = max(1.0, abs(volume))
    if residual > PAPPUS_TOL * scale or abs(volume - 2 * math.pi * eta * area) > PAPPUS_TOL * scale:
        problems.append(f"Pappus residual {residual} over {PAPPUS_TOL} relative")
    return problems


def _fit_misfit(xs, ys) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    return max(abs(slope * x + intercept - y) / max(abs(y), 1e-300) for x, y in zip(xs, ys))


def coprime_count(q: int, n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, q) == 1)


def expected_audit_verdicts(q: int, truncations) -> list:
    """Verdicts that follow from the evidence for a real character and at
    least three truncations: identities hold exactly, the t = 0 phase sum
    counts terms, the chi^4 sum counts units (linear only if the counts lie
    on a line), W_N is a positive increasing sum, and no real zero exists."""
    counts = [coprime_count(q, n) for n in truncations]
    chi4 = "diverges-linear" if _fit_misfit(truncations, counts) < FIT_MISFIT else "holds-at-truncation"
    return [
        "identity-exact",
        "identity-exact",
        "identity-exact",
        "diverges-linear",
        chi4,
        "identity-exact",
        "positive-definite",
        "no-zero-found",
    ]


def check_audit_output(text: str, fmt: str, values, s: complex, truncations) -> list:
    """An audit of a real character: claim order, verdicts, and (in JSON,
    where the evidence is printed) the evidence itself."""
    q = len(values)
    expected = expected_audit_verdicts(q, truncations)
    try:
        if fmt == "json":
            claims = json.loads(text)
            ids = [c["claim_id"] for c in claims]
            verdicts = [c["verdict"] for c in claims]
        else:
            rows = parse_rows(text, fmt, 4)
            ids = [r[0] for r in rows]
            verdicts = [r[1] for r in rows]
            points = [int(r[2]) for r in rows]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparsable audit output: {exc}"]
    if tuple(ids) != CLAIM_IDS:
        return [f"claim ids {ids}"]
    problems = [
        f"{cid}: verdict {got} but evidence implies {want}"
        for cid, got, want in zip(ids, verdicts, expected)
        if got != want
    ]
    if fmt != "json":
        want_points = [len(truncations)] * 7 + [4]
        if points != want_points:
            problems.append(f"evidence point counts {points}, expected {want_points}")
        return problems
    return problems + check_claim_evidence(claims, values, s, truncations, real=True)


def check_claim_evidence(claims, values, s: complex, truncations, *, real: bool) -> list:
    """Evidence rows of the JSON claims (``ClaimResult.to_json_dict`` form)."""
    q = len(values)
    by_id = {c["claim_id"]: c["evidence"] for c in claims}
    problems = []
    try:
        for cid in ("EQ2_RECONSTRUCT", "EQ3_RECONSTRUCT", "EQ45_FACTORIZATION", "PAPPUS_IDENTITY"):
            rows = by_id[cid]
            tol = PAPPUS_TOL if cid == "PAPPUS_IDENTITY" else IDENTITY_TOL
            if [r[0] for r in rows] != list(truncations):
                problems.append(f"{cid}: truncations {[r[0] for r in rows]}")
            worst = [x for r in rows for x in r[1:]]
            if any(x is None or x > tol for x in worst):
                problems.append(f"{cid}: residuals {worst} over {tol}")
        for n, cos_sum, sin_sum in by_id["PHASE_SUM_DIVERGES_T0"]:
            if (cos_sum, sin_sum) != (n, 0):
                problems.append(f"PHASE_SUM_DIVERGES_T0: N={n} sums ({cos_sum}, {sin_sum})")
        if real:
            for n, total in by_id["CHI4_PHASE_SUM_DIVERGES"]:
                if total != coprime_count(q, n):
                    problems.append(f"CHI4_PHASE_SUM_DIVERGES: N={n} total {total}")
            w_rows = by_id["TRANSFORMED_EQ_POSITIVITY"]
            ws = [w for _, w in w_rows]
            if any(w <= 0 for w in ws) or any(b < a for a, b in zip(ws, ws[1:])):
                problems.append(f"TRANSFORMED_EQ_POSITIVITY: W_N {ws} not positive nondecreasing")
            for n, w in w_rows:
                w_or = truncation_sums(values, complex(s.real, 0.0), n)[2].real
                if not _close(w, w_or, SUM_TOL):
                    problems.append(f"TRANSFORMED_EQ_POSITIVITY: W_{n} = {w}, oracle {w_or}")
            scan = dict(by_id["NONVANISHING_SCAN"])
            if scan["sign_changes"] != 0 or not scan["min_abs"] > MIN_ABS_FLOOR:
                problems.append(f"NONVANISHING_SCAN: {scan}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed evidence: {exc!r}")
    return problems


# --- survey -------------------------------------------------------------------


@functools.cache
def real_nonprincipal_count(q_max: int) -> int:
    return sum(len(real_character_tables(q)) - 1 for q in range(1, q_max + 1))


def check_survey_rows(rows, q_max: int, grid_step: float) -> list:
    """Row count and order against brute force, no sign change, a positive
    grid minimum above the floor, and an argmin that lies on the grid."""
    problems = []
    want = real_nonprincipal_count(q_max)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, brute force counts {want}")
    keys = [(r.q, r.char_index) for r in rows]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("rows not in ascending (q, index) order")
    for r in rows:
        steps = (r.argmin_sigma - grid_step) / grid_step
        if r.sign_changes or not r.min_abs > MIN_ABS_FLOOR or abs(steps - round(steps)) > 1e-6:
            problems.append(f"row {r.to_json_dict()}")
    return problems


def check_survey_row_mp(row) -> list:
    """|L(argmin_sigma)| from mpmath matches the row's grid minimum."""
    values = real_character_tables(row.q)[row.char_index]
    got = abs(l_value_mp(values, complex(row.argmin_sigma, 0.0)))
    if abs(got - row.min_abs) > SUM_TOL * max(1.0, got):
        return [f"q={row.q} index={row.char_index}: min_abs {row.min_abs}, mpmath {got}"]
    return []
