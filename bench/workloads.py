"""Seeded inputs, timed execution and output checks of the three workloads.

A workload produces an endless stream of *units* from its seed.  One unit is
the workload's stated input size (eight survey calls; four groups of
L-values; fifty truncation ops), and the benchmark times units one after
another in a closed loop with a single caller.  ``run`` returns a unit's op
records in a fixed order, so op k of every unit is the same kind of op.  Every library call goes
through the ``lseries_lab`` package or its modules, so the tracer in
``spans.py`` sees it.

So that the seed does not move the figures, it chooses inputs inside fixed
strata: each unit keeps the same mix of cost classes (grid size, phi(q)
band, Euler-Maclaurin shift class of s, truncation length) and the seed only
picks the member of each class.  Units of one run do not repeat a grid, nor
a modulus until its band is used up, so a cache inside the library could not
make later units cheaper than the first one a user runs.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import random
import time
from dataclasses import dataclass, field

import oracles


@dataclass
class OpRecord:
    """One timed library or CLI call: what was asked, how long it took, and
    what came back (the return value, or the exception it raised)."""

    kind: str
    inputs: dict
    seconds: float = 0.0
    output: object = None
    error: BaseException | None = None


def _timed(record: OpRecord, fn, *args, **kwargs) -> OpRecord:
    start = time.perf_counter()
    try:
        record.output = fn(*args, **kwargs)
    except Exception as exc:  # recorded and judged by the workload's check
        record.error = exc
    record.seconds = time.perf_counter() - start
    return record


@dataclass
class Verdict:
    """Outcome of checking one unit: ops that failed, ops that hit a known
    library defect (kept apart from failures, see ``KNOWN_DEFECTS``), and
    checks deferred to after timing (callables returning a Verdict)."""

    failed: list = field(default_factory=list)
    defects: list = field(default_factory=list)
    deferred: list = field(default_factory=list)


# Library defects the benchmark exposes instead of filtering out.  An op that
# hits one counts as attempted and as a known defect, not as failed, so the
# result stays comparable while the defect stands; each is printed.
KNOWN_DEFECTS = {
    "audit-aborts": "run_audit on a complex character raises NonRealCharacterError from "
    "NONVANISHING_SCAN, although one claim's trouble is documented never to abort the audit",
    "grouped-roundoff": "evaluate at s = 1 (grouped) reports an err_estimate below its actual "
    "roundoff error for large q; only errors up to GROUPED_ROUNDOFF_LIMIT count as this defect",
}
GROUPED_ROUNDOFF_LIMIT = 1e-12


# --- survey -------------------------------------------------------------------

SURVEY_Q_MAX = 30
SURVEY_STEP = 0.01
# One unit is one survey call per stratum of grid_step in SURVEY_STEP +-10 %:
# op k of every unit has the same grid size, so the latency percentiles
# compare like with like.
SURVEY_STRATA = 8
SURVEY_MP_ROWS = 2


class Survey:
    name = "survey"
    nominal_unit_s = 3.5
    reference_mix = "float"

    def units(self, seed: int):
        rng = random.Random(f"survey:{seed}")
        while True:
            steps = [SURVEY_STEP * (0.9 + 0.2 * (k + rng.random()) / SURVEY_STRATA) for k in range(SURVEY_STRATA)]
            yield {"grid_steps": steps, "rng": rng.random()}

    def run(self, lab, unit) -> list:
        return [
            _timed(OpRecord("nonvanishing_survey", {"q_max": SURVEY_Q_MAX, "grid_step": step}),
                   lab.nonvanishing_survey, SURVEY_Q_MAX, step)
            for step in unit["grid_steps"]
        ]

    def check(self, lab, unit, records) -> Verdict:
        verdict = Verdict()
        for record in records:
            if record.error is not None:
                verdict.failed.append(f"survey raised {record.error!r}")
                continue
            problems = oracles.check_survey_rows(record.output, SURVEY_Q_MAX, record.inputs["grid_step"])
            if problems:
                verdict.failed.append("; ".join(problems[:3]))
        rng = random.Random(unit["rng"])
        rows = rng.choice(records).output
        if not verdict.failed and rows:
            picks = rng.sample(rows, min(SURVEY_MP_ROWS, len(rows)))
            verdict.deferred = [lambda r=r: Verdict(failed=oracles.check_survey_row_mp(r)) for r in picks]
        return verdict


# --- lvalues ------------------------------------------------------------------

LV_MODULI = range(150, 451)
LV_CHARS = 8
# Every group is evaluated at s = 1, at 1/2 + it with t in LV_T_LOW and at
# 1/2 + it with t in its slot's high range.  Each t range stays inside one
# Euler-Maclaurin shift class of the seed code (20 below t = 13.5; 160 / 320
# / 640 / 1280 split at t = 215, 455 and 946), and each slot's modulus has
# phi(q) within LV_PHI_BAND of the slot's target, so an op costs the same in
# every unit and for every seed.  The ops then fall into three cost classes:
# s = 1 and low t on the small groups (the cheapest third), s = 1 and low t
# on the large groups (the middle third, holding the median op), and high t
# on all but the first slot (the top quarter, holding p90).  A percentile
# inside a class moves only with the op's speed, never with the seed.
LV_T_LOW = (1.0, 13.0)
LV_SLOTS = (  # (target phi(q), t range of the high point)
    (130, (100.0, 210.0)),
    (130, (950.0, 1000.0)),
    (240, (460.0, 940.0)),
    (240, (460.0, 940.0)),
)
LV_PHI_BAND = 0.08
LV_PAIRS_CHECKED = 64
# Sanity ceiling on err_estimate: the per-residue tolerance is 1e-10 and a
# group has fewer than 10^4 residues.  mpmath checks the estimate's honesty.
LV_ERR_CEILING = 1e-6


class LValues:
    name = "lvalues"
    nominal_unit_s = 3.0
    reference_mix = "exact"

    def units(self, seed: int):
        """Moduli are drawn without repeats from each slot's phi band until
        the band is used up, so a cache inside the library could not make
        later units cheaper than the first one a user runs."""
        rng = random.Random(f"lvalues:{seed}")
        bands = {
            target: [q for q in LV_MODULI if abs(oracles.phi(q) - target) <= LV_PHI_BAND * target]
            for target, _ in LV_SLOTS
        }
        unused = {target: [] for target in bands}
        while True:
            moduli = []
            for target, high in LV_SLOTS:
                if not unused[target]:
                    unused[target] = rng.sample(bands[target], len(bands[target]))
                q = unused[target].pop()
                t_low = rng.uniform(*LV_T_LOW)
                t_high = high[0] * (high[1] / high[0]) ** rng.random()
                moduli.append(
                    {
                        "q": q,
                        "chars": rng.sample(range(1, oracles.phi(q)), LV_CHARS),
                        "points": (1.0, complex(0.5, t_low), complex(0.5, t_high)),
                    }
                )
            yield {"moduli": moduli, "rng": rng.random()}

    def run(self, lab, unit) -> list:
        records = []
        for m in unit["moduli"]:
            chars = lab.enumerate_characters(m["q"])
            group = OpRecord("group", {"q": m["q"]}, output=chars)
            records.append(group)
            for index in m["chars"]:
                chi = chars[index]
                for s in m["points"]:
                    records.append(_timed(OpRecord("evaluate", {"chi": chi, "s": s}), lab.evaluate, chi, s))
        return records

    def check(self, lab, unit, records) -> Verdict:
        """Each group: phi(q) distinct characters with multiplicative tables
        on sampled pairs.  Each evaluation: finite, the right method, a small
        finite error estimate (at most LV_ERR_CEILING).  After timing, mpmath
        checks |error| <= err_estimate for every s = 1 op (digamma is cheap)
        and a seeded one at each height; the high one uses the unit's smallest
        group, which keeps mpmath's cost at |t| near 1000 bounded."""
        verdict = Verdict()
        rng = random.Random(unit["rng"])
        evals = [r for r in records if r.kind == "evaluate"]
        for group in (r for r in records if r.kind == "group"):
            q, chars = group.inputs["q"], group.output
            problems = []
            if len(chars) != oracles.phi(q) or len({c.values for c in chars}) != len(chars):
                problems.append(f"mod {q}: {len(chars)} characters, phi = {oracles.phi(q)}")
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            checked = {id(r.inputs["chi"]): r.inputs["chi"] for r in evals if r.inputs["chi"].modulus == q}
            for chi in [chars[0], *checked.values()]:
                pairs = [(rng.choice(units), rng.choice(units)) for _ in range(LV_PAIRS_CHECKED)]
                problems += oracles.check_table(q, chi.values, pairs)
            if problems:
                verdict.failed.append("; ".join(problems[:3]))
        ok = []
        for r in evals:
            problems = _check_evaluation(r)
            if problems:
                verdict.failed.append("; ".join(problems))
            else:
                ok.append(r)
        if ok:
            smallest = min(oracles.phi(r.inputs["chi"].modulus) for r in ok)
            low = [r for r in ok if r.inputs["s"] != 1.0 and abs(r.inputs["s"].imag) <= 30]
            high = [
                r
                for r in ok
                if oracles.phi(r.inputs["chi"].modulus) == smallest and abs(r.inputs["s"].imag) > 30
            ]
            picks = [r for r in ok if r.inputs["s"] == 1.0] + [rng.choice(c) for c in (low, high) if c]
            verdict.deferred = [
                functools.partial(_check_evaluation_mp, r.inputs["chi"].values, r.inputs["s"], r.output)
                for r in picks
            ]
        return verdict


def _check_evaluation(record) -> list:
    if record.error is not None:
        return [f"evaluate raised {record.error!r}"]
    ev = record.output
    want = "grouped" if record.inputs["s"] == 1.0 else "hurwitz"
    problems = []
    if ev.method != want:
        problems.append(f"method {ev.method}, expected {want}")
    if not (math.isfinite(ev.value.real) and math.isfinite(ev.value.imag)):
        problems.append(f"value {ev.value}")
    if not 0.0 <= ev.err_estimate <= LV_ERR_CEILING:
        problems.append(f"err_estimate {ev.err_estimate}")
    return problems


def _check_evaluation_mp(values, s, ev) -> Verdict:
    error = abs(ev.value - oracles.l_value_mp(values, complex(s)))
    if error <= ev.err_estimate:
        return Verdict()
    problem = f"L(s={s}) mod {len(values)}: error {error:.3e} > err_estimate {ev.err_estimate:.3e}"
    if ev.method == "grouped" and error <= GROUPED_ROUNDOFF_LIMIT:
        return Verdict(defects=[f"grouped-roundoff: {problem}"])
    return Verdict(failed=[problem])


# --- truncation -----------------------------------------------------------------

# Moduli <= 24 grouped by phi(q): the audit's zero scan costs about phi(q),
# so each slot fixes the class and the seed picks the modulus inside it.
PHI_CLASSES = ((3, 4, 6), (5, 8, 10, 12), (7, 9, 14, 18), (15, 16, 20, 24), (11, 22), (13, 21), (17,), (19,), (23,))
COMPLEX_MODULI = (5, 7, 11, 13, 17, 19, 23, 29)
FORMATS = ("json", "csv", "table")
TR_CLI_AUDITS = 18
TR_CLI_PAPPUS = 15
TR_LIB_PAPPUS = 12
TR_LIB_AUDITS = 5


def _jitter(rng, base: int) -> int:
    return round(base * (0.95 + 0.1 * rng.random()))


def _point(rng, off_axis: bool) -> complex:
    return complex(round(0.3 + 0.6 * rng.random(), 6), round(1.0 + 7.0 * rng.random(), 6) if off_axis else 0.0)


def _s_arg(s: complex) -> str:
    return repr(s.real) if s.imag == 0 else f"{s.real!r}+{s.imag!r}i"


class Truncation:
    name = "truncation"
    nominal_unit_s = 1.5
    reference_mix = "exact"

    def units(self, seed: int):
        rng = random.Random(f"truncation:{seed}")
        while True:
            ops = []
            for j in range(TR_CLI_AUDITS):
                q = rng.choice(PHI_CLASSES[j % len(PHI_CLASSES)])
                n3 = _jitter(rng, 2400)
                n2 = n3 // rng.randint(3, 6)
                ns = [n2 // rng.randint(4, 10), n2, n3]
                ops.append(
                    {
                        "kind": "cli_audit",
                        "q": q,
                        "k": rng.randrange(1, len(oracles.real_character_tables(q))),
                        "s": _point(rng, j % 2 == 1),
                        "N": ns,
                        "format": FORMATS[(j + j // len(PHI_CLASSES)) % 3],
                    }
                )
            for j in range(TR_CLI_PAPPUS):
                q = rng.choice(PHI_CLASSES[j % len(PHI_CLASSES)])
                ops.append(
                    {
                        "kind": "cli_pappus",
                        "q": q,
                        "k": rng.randrange(1, len(oracles.real_character_tables(q))),
                        "s": _point(rng, j % 2 == 1),
                        "N": _jitter(rng, 3000),
                        "format": FORMATS[(j + j // len(PHI_CLASSES)) % 3],
                    }
                )
            for j in range(TR_LIB_PAPPUS):
                q = COMPLEX_MODULI[j % len(COMPLEX_MODULI)]
                ops.append(
                    {
                        "kind": "lib_pappus",
                        "q": q,
                        "r": rng.randrange(q - 3),
                        "s": _point(rng, j % 2 == 1),
                        "N": _jitter(rng, 5000),
                    }
                )
            for j in range(TR_LIB_AUDITS):
                q = COMPLEX_MODULI[j % len(COMPLEX_MODULI)]
                n3 = _jitter(rng, 5000)
                ops.append(
                    {
                        "kind": "lib_audit",
                        "q": q,
                        "r": rng.randrange(q - 3),
                        "s": _point(rng, j % 2 == 1),
                        "N": [n3 // 50, n3 // 5, n3],
                    }
                )
            order = list(range(len(ops)))
            rng.shuffle(order)
            yield {"ops": ops, "order": order}

    def run(self, lab, unit) -> list:
        """Runs the ops in the unit's shuffled order and returns their
        records in the order they were generated."""
        records = [None] * len(unit["ops"])
        for k in unit["order"]:
            records[k] = _run_truncation_op(lab, unit["ops"][k])
        return records

    def check(self, lab, unit, records) -> Verdict:
        verdict = Verdict()
        for record in records:
            problems, defect = _check_truncation_op(record)
            if defect:
                verdict.defects.append(f"audit-aborts: q={record.inputs['q']} s={record.inputs['s']}")
            elif problems:
                verdict.failed.append(f"{record.kind} {record.inputs}: " + "; ".join(problems[:3]))
        return verdict


def _run_truncation_op(lab, op) -> OpRecord:
    kind = op["kind"]
    record = OpRecord(kind, op)
    if kind == "cli_audit" or kind == "cli_pappus":
        argv = ["audit"] if kind == "cli_audit" else ["pappus", "check"]
        n_arg = ",".join(map(str, op["N"])) if kind == "cli_audit" else str(op["N"])
        argv += ["-q", str(op["q"]), "-k", str(op["k"]), "-s", _s_arg(op["s"]), "-N", n_arg, "--format", op["format"]]

        def call():
            out = io.StringIO()
            return lab.cli.main(argv, out=out), out.getvalue()

        return _timed(record, call)
    library_call = lab.pappus_check if kind == "lib_pappus" else lab.run_audit

    def call():
        chi = [c for c in lab.enumerate_characters(op["q"]) if not c.is_real][op["r"]]
        record.inputs = dict(op, chi=chi)
        return library_call(chi, op["s"], op["N"])

    return _timed(record, call)


def _check_truncation_op(record) -> tuple:
    """(problems, known_defect) for one truncation op."""
    op, kind = record.inputs, record.kind
    if kind == "lib_audit" and type(record.error).__name__ == "NonRealCharacterError":
        return [], True  # KNOWN_DEFECTS["audit-aborts"]
    if record.error is not None:
        return [f"raised {record.error!r}"], False
    if kind in ("cli_audit", "cli_pappus"):
        code, text = record.output
        if code != 0:
            return [f"exit code {code}"], False
        values = oracles.real_character_tables(op["q"])[op["k"]]
        if kind == "cli_audit":
            return oracles.check_audit_output(text, op["format"], values, op["s"], op["N"]), False
        return oracles.check_pappus_output(text, op["format"], values, op["s"], op["N"]), False
    chi = op["chi"]
    all_pairs = list(itertools.product(range(op["q"]), repeat=2))
    problems = oracles.check_table(op["q"], chi.values, all_pairs)
    if chi.is_real:
        problems.append("selected a real character")
    if kind == "lib_pappus":
        report = record.output
        return problems + oracles.check_pappus_report(
            report.profile_area, report.volume, report.eta, report.residual, chi.values, op["s"], op["N"]
        ), False
    claims = [c.to_json_dict() for c in record.output]
    if tuple(c["claim_id"] for c in claims) != oracles.CLAIM_IDS:
        return problems + [f"claim ids {[c['claim_id'] for c in claims]}"], False
    return problems + oracles.check_claim_evidence(claims, chi.values, op["s"], op["N"], real=False), False
