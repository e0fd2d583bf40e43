"""Claim audit: registry order, verdict logic, note paths, survey rows."""

import json
import math
import re
import statistics
from dataclasses import replace

import pytest

from lseries_lab import audit as audit_module
from lseries_lab.audit import (
    CLAIM_IDS,
    VERDICTS,
    SurveyRow,
    nonvanishing_survey,
    run_audit,
)
from lseries_lab import cgeom, lseries, resolution, rotation
from lseries_lab.cgeom import IsotropicVectorError, bilinear_dot, formal_cosine, formal_norm
from lseries_lab.characters import (
    DirichletCharacter,
    enumerate_characters,
    enumerate_real_characters,
    kronecker_symbol,
    unit_group_structure,
)
from lseries_lab.lseries import (
    ContinuationRangeError,
    LEvaluation,
    NonRealCharacterError,
    ScanGridError,
    _running_sums,
    partial_sum,
)
from lseries_lab.resolution import AMPLITUDE_CHI, PHASE_CHI, VARIANTS, build_vectors
from lseries_lab.rotation import ZeroAreaError, pappus_check

CHI3 = enumerate_real_characters(3)[1]
CHI4 = enumerate_real_characters(4)[1]


def by_id(results, claim_id):
    (match,) = [r for r in results if r.claim_id == claim_id]
    return match


class TestRegistry:
    def test_claim_ids_fixed(self):
        assert CLAIM_IDS == (
            "EQ2_RECONSTRUCT",
            "EQ3_RECONSTRUCT",
            "EQ45_FACTORIZATION",
            "PHASE_SUM_DIVERGES_T0",
            "CHI4_PHASE_SUM_DIVERGES",
            "PAPPUS_IDENTITY",
            "TRANSFORMED_EQ_POSITIVITY",
            "NONVANISHING_SCAN",
        )

    def test_results_in_registry_order(self):
        results = run_audit(CHI4, 0.5, [10, 100])
        assert tuple(r.claim_id for r in results) == CLAIM_IDS
        assert all(r.verdict in VERDICTS for r in results)


class TestInputValidation:
    def test_empty_truncations(self):
        with pytest.raises(ValueError):
            run_audit(CHI4, 0.5, [])

    @pytest.mark.parametrize("bad", [[100, 10], [10, 10], [0, 10]])
    def test_non_increasing_or_below_one(self, bad):
        with pytest.raises(ValueError):
            run_audit(CHI4, 0.5, bad)

    # every count is an integer: a float is a TypeError whatever its value
    # (below 1, integral or not), never truncated to an int or counted as a
    # total
    @pytest.mark.parametrize("n", [10.7, 0.5, 2.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: resolution.phase_series_sums(0.0, n),
            lambda n: run_audit(CHI4, 0.5, [n, 100]),
            lambda n: partial_sum(CHI4, 0.5, n),
            lambda n: rotation.step_profile(CHI4, 0.5, n),
            lambda n: build_vectors(CHI4, 0.5, n, AMPLITUDE_CHI),
            lambda n: pappus_check(CHI4, 0.5, n),
            lambda n: lseries.scan_zeros(CHI4, 0.1, 0.9, n),
            nonvanishing_survey,
            unit_group_structure,
            lambda n: DirichletCharacter.from_values(n, [0, 1]),
        ],
        ids=[
            "phase_series_sums",
            "run_audit",
            "partial_sum",
            "step_profile",
            "build_vectors",
            "pappus_check",
            "scan_zeros",
            "nonvanishing_survey",
            "unit_group_structure",
            "from_values",
        ],
    )
    def test_non_integral_count_is_a_type_error(self, call, n):
        with pytest.raises(TypeError):
            call(n)

    # 0.4 and 0.6 are positive but leave a one-point grid in (0, 1); inf
    # leaves no grid at all
    @pytest.mark.parametrize("step", [0.0, -0.01, float("nan"), 0.4, 0.6, float("inf")])
    def test_grid_step_not_positive_is_rejected_before_any_series(self, step, monkeypatch):
        def walked(*args):
            raise AssertionError("a series was walked")

        monkeypatch.setattr(audit_module, "_truncation_claims", walked)
        if not step > 0:
            message = "grid step must be > 0"
        elif step == float("inf"):
            message = "grid step must be finite, got inf"
        else:
            message = "need at least 2 grid points, got 1"
        with pytest.raises(ValueError, match=message):
            run_audit(CHI4, 0.5, [10], grid_step=step)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), complex(0.5, float("nan"))])
    def test_non_finite_point_is_rejected(self, s):
        # NaN residuals would otherwise read as exact identities
        with pytest.raises(ValueError, match="s must be a finite point"):
            run_audit(CHI4, s, [10, 100], grid_step=0.1)

    @pytest.mark.parametrize(
        "s,truncations,where",
        [
            # Pappus V's chi^2 terms n^80 at s, walked first
            (-40.0, [10, 1000, 100000], "the term n^(-m s) with n = 7133, m = 2"),
            # -2s itself: 2t is past the float range before any term
            (complex(0.5, 1e308), [10, 100], "-2s = (-1-infj)"),
        ],
    )
    def test_term_past_the_float_range_is_a_domain_error(self, s, truncations, where):
        message = f"at s = {complex(s)}, {where} is past the float range"
        with pytest.raises(ContinuationRangeError, match=re.escape(message)):
            run_audit(CHI4, s, truncations, grid_step=0.1)


@pytest.fixture(scope="module")
def chi4_results():
    return run_audit(CHI4, 0.5, [100, 1000, 10000])


class TestVerdicts:
    @pytest.fixture()
    def results(self, chi4_results):
        return chi4_results

    def test_reconstruction_claims_exact(self, results):
        assert by_id(results, "EQ2_RECONSTRUCT").verdict == "identity-exact"
        assert by_id(results, "EQ3_RECONSTRUCT").verdict == "identity-exact"
        for claim_id in ("EQ2_RECONSTRUCT", "EQ3_RECONSTRUCT"):
            evidence = by_id(results, claim_id).evidence
            assert [n for n, _ in evidence] == [100, 1000, 10000]
            assert all(rel <= 1e-12 for _, rel in evidence)

    def test_factorization_exact(self, results):
        claim = by_id(results, "EQ45_FACTORIZATION")
        assert claim.verdict == "identity-exact"
        for row in claim.evidence:
            assert len(row) == 3  # (n, rel_amplitude, rel_phase)
            assert all(rel is not None and rel <= 1e-12 for rel in row[1:])

    def test_phase_sum_diverges_with_slope_one(self, results):
        claim = by_id(results, "PHASE_SUM_DIVERGES_T0")
        assert claim.verdict == "diverges-linear"
        # evidence rows are (n, cos_sum, sin_sum) with cos_sum = n exactly
        for n, cos_sum, sin_sum in claim.evidence:
            assert cos_sum == float(n)
            assert sin_sum == 0.0
        assert "slope 1" in claim.note

    def test_chi4_sum_diverges_with_slope_phi_over_q(self, results):
        claim = by_id(results, "CHI4_PHASE_SUM_DIVERGES")
        assert claim.verdict == "diverges-linear"
        # phi(4)/4 = 0.5: counts of units below n
        for n, total in claim.evidence:
            assert total == float(n // 2)
        assert "0.5" in claim.note

    def test_pappus_identity(self, results):
        claim = by_id(results, "PAPPUS_IDENTITY")
        assert claim.verdict == "identity-exact"
        assert all(rel is not None and rel <= 1e-9 for _, rel in claim.evidence)

    def test_positivity(self, results):
        claim = by_id(results, "TRANSFORMED_EQ_POSITIVITY")
        assert claim.verdict == "positive-definite"
        totals = [w for _, w in claim.evidence]
        assert all(w > 0 for w in totals)
        assert totals == sorted(totals)

    def test_nonvanishing_scan(self, results):
        claim = by_id(results, "NONVANISHING_SCAN")
        assert claim.verdict == "no-zero-found"
        evidence = dict(claim.evidence)
        assert evidence["sign_changes"] == 0
        assert evidence["min_abs"] > 0.0
        assert evidence["grid_points"] == 99  # 0.01 .. 0.99 inclusive
        # the grid is the scan's only setting
        assert claim.inputs == {"q": 4, "grid_step": 0.01}


class TestGrowthFitSlopes:
    @pytest.mark.parametrize("q,phi_over_q", [(3, 2 / 3), (4, 1 / 2), (5, 4 / 5), (8, 1 / 2)])
    def test_chi4_slope_matches_unit_density(self, q, phi_over_q):
        chi = enumerate_real_characters(q)[1]
        results = run_audit(chi, 0.5, [1000, 2000, 4000])
        claim = by_id(results, "CHI4_PHASE_SUM_DIVERGES")
        xs = [n for n, _ in claim.evidence]
        ys = [total for _, total in claim.evidence]
        slope = statistics.linear_regression(xs, ys).slope
        assert abs(slope - phi_over_q) <= 1e-3

    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_aligned_truncations_pass_the_strict_fit_gate(self, q):
        # multiples of q make the unit count exactly linear, so the 1e-6
        # misfit gate is met and the verdict upgrades to diverges-linear
        chi = enumerate_real_characters(q)[1]
        results = run_audit(chi, 0.5, [100 * q, 200 * q, 400 * q])
        claim = by_id(results, "CHI4_PHASE_SUM_DIVERGES")
        assert claim.verdict == "diverges-linear"

    def test_misaligned_truncations_fail_the_strict_fit_gate(self):
        # q = 3 with N not multiples of 3: the counting wobble keeps the
        # relative misfit above 1e-6, so no linear-divergence verdict
        chi = enumerate_real_characters(3)[1]
        results = run_audit(chi, 0.5, [1000, 2000, 4000])
        claim = by_id(results, "CHI4_PHASE_SUM_DIVERGES")
        assert claim.verdict == "holds-at-truncation"
        assert "misfit" in claim.note


class TestNotePaths:
    def test_short_truncation_list_is_padded_for_growth_fits(self):
        results = run_audit(CHI4, 0.5, [1000])
        for claim_id in ("PHASE_SUM_DIVERGES_T0", "CHI4_PHASE_SUM_DIVERGES"):
            claim = by_id(results, claim_id)
            assert claim.verdict == "diverges-linear"
            assert len(claim.evidence) >= 3
            assert "extended" in claim.note
        # non-growth claims keep the caller's list
        assert [n for n, _ in by_id(results, "EQ2_RECONSTRUCT").evidence] == [1000]

    def test_zero_area_becomes_note_not_crash(self):
        # chi mod 4 at s = 0: every full period sums to zero area
        results = run_audit(CHI4, 0.0, [4, 8, 12])
        claim = by_id(results, "PAPPUS_IDENTITY")
        assert claim.verdict == "holds-at-truncation"
        assert "zero" in claim.note
        assert all(rel is None for _, rel in claim.evidence)
        assert claim.note.endswith("; no truncation was checkable")
        # the rest of the audit still ran
        assert by_id(results, "EQ2_RECONSTRUCT").verdict == "identity-exact"
        assert by_id(results, "NONVANISHING_SCAN").verdict == "no-zero-found"

    def test_mixed_zero_area_keeps_checkable_rows(self):
        # at s = 0 the chi mod 4 partial sums are 1,1,0,0,1,1,0,0,...
        results = run_audit(CHI4, 0.0, [1, 4, 5])
        claim = by_id(results, "PAPPUS_IDENTITY")
        rels = dict(claim.evidence)
        assert rels[4] is None  # complete period: zero area
        assert rels[1] is not None and rels[5] is not None
        assert claim.verdict == "identity-exact"
        assert "N=4" in claim.note

    def test_isotropic_vector_becomes_note_not_crash(self, monkeypatch):
        calls = {"n": 0}
        real_cosine = audit_module._cosine

        def flaky_cosine(dot, uu, vv):
            calls["n"] += 1
            if calls["n"] == 1:
                raise IsotropicVectorError("first vector is isotropic (formal norm 0)")
            return real_cosine(dot, uu, vv)

        monkeypatch.setattr(audit_module, "_cosine", flaky_cosine)
        results = run_audit(CHI4, 0.5, [10, 100])
        claim = by_id(results, "EQ45_FACTORIZATION")
        assert "isotropic" in claim.note
        assert claim.evidence[0][1] is None  # skipped cell, first N / first variant
        assert claim.verdict == "identity-exact"  # remaining cells still exact

    def test_all_isotropic_factorization_is_not_checkable(self, monkeypatch):
        def isotropic(dot, uu, vv):
            raise IsotropicVectorError("first vector is isotropic (formal norm 0)")

        monkeypatch.setattr(audit_module, "_cosine", isotropic)
        claim = by_id(run_audit(CHI4, 0.5, [10, 100]), "EQ45_FACTORIZATION")
        assert claim.evidence == [(10, None, None), (100, None, None)]
        assert claim.verdict == "holds-at-truncation"
        assert claim.note.endswith("; no truncation was checkable")

    def test_nan_residual_is_not_identity_exact(self):
        # at sigma = -51.3 the N = 1000 terms reach 1000^51.3 ~ 1e154, so the
        # products behind the EQ45 and PAPPUS residuals overflow to NaN there
        results = run_audit(CHI4, -51.3, [10, 100, 1000], grid_step=0.1)
        for claim_id in ("EQ45_FACTORIZATION", "PAPPUS_IDENTITY"):
            claim = by_id(results, claim_id)
            assert math.isnan(claim.evidence[-1][1])
            assert claim.verdict == "holds-at-truncation"
            assert claim.note == "max relative residual nan"

    def test_infinite_w_is_not_positive_definite(self):
        # W_1000 = sum(n^102.6) over odd n <= 1000 overflows to inf
        claim = by_id(
            run_audit(CHI4, -51.3, [10, 100, 1000], grid_step=0.1), "TRANSFORMED_EQ_POSITIVITY"
        )
        assert claim.evidence[-1] == (1000, math.inf)
        assert claim.verdict == "holds-at-truncation"
        assert claim.note == "some W_N was not finite"

    def test_sign_change_found_verdict(self, monkeypatch):
        root_at = 0.512

        def fake_evaluate(chi, s, *, tol=1e-10):
            sigma = complex(s).real
            return LEvaluation(
                value=complex(sigma - root_at, 0.0),
                method="hurwitz",
                n_used=1,
                err_estimate=1e-15,
            )

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        results = run_audit(CHI4, 0.5, [10])
        claim = by_id(results, "NONVANISHING_SCAN")
        assert claim.verdict == "sign-change-found"
        assert "root near 0.512" in claim.note
        assert dict(claim.evidence)["sign_changes"] == 1


def single_n_evidence(chi, s, truncations):
    """The evidence of the five prefix-read claims, recomputed one
    truncation at a time through the public single-N functions."""
    s = complex(s)
    want = {}
    for claim_id, variant in (("EQ2_RECONSTRUCT", AMPLITUDE_CHI), ("EQ3_RECONSTRUCT", PHASE_CHI)):
        rows = []
        for n in truncations:
            rhs = partial_sum(chi, s, n)
            residual = abs(bilinear_dot(*build_vectors(chi, s, n, variant)) - rhs)
            rows.append((n, residual / max(1.0, abs(rhs))))
        want[claim_id] = rows
    rows = []
    for n in truncations:
        row = [n]
        for variant in VARIANTS:
            a_vec, p_vec = build_vectors(chi, s, n, variant)
            dot = sum((a * p for a, p in zip(a_vec, p_vec)), 0j)
            try:
                cosine = formal_cosine(a_vec, p_vec)
            except IsotropicVectorError:
                row.append(None)
                continue
            product = formal_norm(a_vec) * formal_norm(p_vec) * cosine
            row.append(abs(dot - product) / max(1.0, abs(dot)))
        rows.append(tuple(row))
    want["EQ45_FACTORIZATION"] = rows
    rows = []
    for n in truncations:
        try:
            rows.append((n, pappus_check(chi, s, n).relative_residual))
        except ZeroAreaError:
            rows.append((n, None))
    want["PAPPUS_IDENTITY"] = rows
    want["TRANSFORMED_EQ_POSITIVITY"] = [
        (n, _running_sums(chi, complex(s.real, 0.0), [n], 2)[0].real) for n in truncations
    ]
    return want


class TestPrefixEvidence:
    """Every truncation is read as a prefix of the largest one; the evidence
    must equal, exactly, what the single-N functions give at each N."""

    @pytest.mark.parametrize(
        "q,k,s,truncations",
        [
            (3, 1, 0.5, [10, 100, 1000]),
            (4, 1, complex(0.7, 3.0), [7, 50, 333]),
            (8, 2, complex(1.2, -5.0), [25]),
            (12, 3, 0.35, [1, 2, 999]),
            (4, 1, 0.0, [1, 4, 5]),  # zero profile area at N = 4
        ],
    )
    def test_real_character_audit_equals_single_n_functions(self, q, k, s, truncations):
        chi = enumerate_real_characters(q)[k]
        results = run_audit(chi, s, truncations)
        for claim_id, rows in single_n_evidence(chi, s, truncations).items():
            assert by_id(results, claim_id).evidence == rows, claim_id

    @pytest.mark.parametrize(
        "q,s,truncations",
        [
            (5, 0.5, [10, 100, 1000]),
            (13, complex(0.6, 4.0), [3, 40, 400]),
            (7, complex(1.1, -2.5), [77]),
            (16, 0.0, [1, 4, 16]),
        ],
    )
    def test_complex_character_claims_equal_single_n_functions(self, q, s, truncations):
        # run_audit refuses a complex character in its zero scan, so the
        # truncation claims are read from the helper that runs after it
        for chi in [c for c in enumerate_characters(q) if not c.is_real][:2]:
            claims = audit_module._truncation_claims(chi, complex(s), tuple(truncations))
            assert tuple(c.claim_id for c in claims) == CLAIM_IDS[:7]
            for claim_id, rows in single_n_evidence(chi, s, truncations).items():
                assert by_id(claims, claim_id).evidence == rows, claim_id


def count_calls(monkeypatch, functions):
    """Wrap each function wherever the package holds it; returns call counts."""
    counts = {}
    for function in functions:
        name = function.__name__
        counts[name] = 0

        def wrapper(*args, _name=name, _function=function, **kwargs):
            counts[_name] += 1
            return _function(*args, **kwargs)

        for module in (lseries, resolution, rotation, audit_module, cgeom):
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, wrapper)
    return counts


class TestOneWalkPerSeries:
    def test_each_series_is_built_once_at_the_largest_truncation(self, monkeypatch):
        built_at = []
        real_build_vectors = resolution.build_vectors

        def recording_build_vectors(chi, s, n_terms, variant):
            built_at.append(n_terms)
            return real_build_vectors(chi, s, n_terms, variant)

        counts = count_calls(
            monkeypatch,
            [
                rotation.step_profile,
                lseries.partial_sum,
                rotation.pappus_check,
                bilinear_dot,
                formal_norm,
                formal_cosine,
            ],
        )
        monkeypatch.setattr(audit_module, "build_vectors", recording_build_vectors)
        monkeypatch.setattr(resolution, "build_vectors", recording_build_vectors)
        run_audit(CHI4, complex(0.5, 1.0), [10, 100, 1000])
        assert built_at == [1000, 1000]  # once per variant
        assert counts == {
            "step_profile": 1,
            "partial_sum": 0,
            "pappus_check": 0,
            # each truncation's pairing and norms are running sums, not
            # a fresh pass over a prefix of the factor vectors
            "bilinear_dot": 0,
            "formal_norm": 0,
            "formal_cosine": 0,
        }

    def test_each_term_stream_is_walked_once(self, monkeypatch):
        # off the real axis the profile, the factor vectors, W_N and the
        # chi^4 sum are all distinct streams; EQ2/EQ3 read the profile's area
        walks = {}
        real_terms = lseries._terms

        def counting_terms(chi, s, stop, m=1):
            key = (chi.values, s, m)
            walks[key] = walks.get(key, 0) + 1
            assert stop == 1001
            return real_terms(chi, s, stop, m)

        for module in (lseries, rotation, resolution):
            monkeypatch.setattr(module, "_terms", counting_terms)
        s = complex(0.5, 1.0)
        run_audit(CHI4, s, [10, 100, 1000])
        assert walks[(CHI4.values, s, 1)] == 1
        assert set(walks.values()) == {1}
        assert len(walks) == 8  # profile, 2 x 2 factors, chi^2 at s and at sigma, chi^4 at 0

    def test_on_the_real_axis_w_n_reads_the_square_walk_at_s(self, monkeypatch):
        # at t = 0 chi^2 n^-2s at s and at (sigma, 0) are one stream, walked once
        walks = {}
        real_terms = lseries._terms

        def counting_terms(chi, s, stop, m=1):
            key = (chi.values, s, m)
            walks[key] = walks.get(key, 0) + 1
            return real_terms(chi, s, stop, m)

        for module in (lseries, rotation, resolution):
            monkeypatch.setattr(module, "_terms", counting_terms)
        run_audit(CHI4, 0.5, [10, 100, 1000])
        assert walks[(CHI4.values, 0.5 + 0j, 2)] == 1
        assert [n for (_, _, m), n in walks.items() if m == 2] == [1]

    def test_overflow_stops_at_the_first_walk(self, monkeypatch):
        # chi^2 n^-2s has the widest terms and is walked first, so a point
        # past the float range is refused before the profile, a factor
        # vector or any other stream yields a term
        items = {}
        real_terms = lseries._terms

        def counting_terms(chi, s, stop, m=1):
            for term in real_terms(chi, s, stop, m):
                items[s, m] = items.get((s, m), 0) + 1
                yield term

        for module in (lseries, rotation, resolution):
            monkeypatch.setattr(module, "_terms", counting_terms)
        counts = count_calls(monkeypatch, [rotation.step_profile, resolution.build_vectors])
        with pytest.raises(ContinuationRangeError, match="n = 7133, m = 2"):
            run_audit(CHI4, -40.0, [10, 1000, 100000])
        assert items == {(-40.0 + 0j, 2): 7132}
        assert counts == {"step_profile": 0, "build_vectors": 0}

    @pytest.mark.parametrize(
        ("chi", "s", "error", "match"),
        [
            (next(c for c in enumerate_characters(5) if not c.is_real), 0.5 + 1j,
             NonRealCharacterError, "real character"),
            (CHI4, complex("nan"), ValueError, "finite"),
        ],
        ids=["complex-chi", "nan-point"],
    )
    def test_refusal_walks_no_series(self, monkeypatch, chi, s, error, match):
        # the point and the character are checked before any term stream is
        # walked or any L-value computed, so a refused audit does no work
        counts = count_calls(monkeypatch, [lseries._terms, lseries.evaluate])
        with pytest.raises(error, match=match):
            run_audit(chi, s, [10, 100, 1000])
        assert counts == {"_terms": 0, "evaluate": 0}


class TestJsonSchema:
    def test_claim_json_round_trips(self):
        results = run_audit(CHI3, complex(0.5, 1.0), [10, 100])
        for claim in results:
            d = claim.to_json_dict()
            assert set(d) == {"claim_id", "inputs", "evidence", "verdict", "note"}
            text = json.dumps(d)  # must be JSON-serializable as-is
            assert json.loads(text) == d


class TestSurvey:
    def test_rejects_bad_qmax(self):
        with pytest.raises(ValueError):
            nonvanishing_survey(0)

    @pytest.mark.parametrize("step", [0.0, -0.01, float("nan"), float("inf")])
    def test_rejects_grid_step_not_positive(self, step):
        with pytest.raises(ValueError, match="grid step must be (> 0|finite, got inf)"):
            nonvanishing_survey(5, step)

    def test_rejects_one_point_grid_without_any_character_to_scan(self):
        # q <= 2 has no real non-principal character: the grid alone is checked
        with pytest.raises(ScanGridError, match="need at least 2 grid points, got 1"):
            nonvanishing_survey(2, 0.6)

    def test_qmax_four_rows(self):
        rows = nonvanishing_survey(4)
        assert [(r.q, r.char_index) for r in rows] == [(3, 1), (4, 1)]
        for row in rows:
            assert row.sign_changes == 0
            assert row.min_abs > 1e-6
            assert 0.0 < row.argmin_sigma < 1.0

    def test_rows_ordered_and_skip_principal(self):
        rows = nonvanishing_survey(12)
        keys = [(r.q, r.char_index) for r in rows]
        assert keys == sorted(keys)
        assert all(r.char_index >= 1 for r in rows)  # index 0 is principal
        # q = 8 carries two real non-principal characters, q = 12 three
        assert sum(1 for r in rows if r.q == 8) == 3
        assert sum(1 for r in rows if r.q == 12) == 3

    def test_row_json_dict(self):
        row = nonvanishing_survey(3)[0]
        d = row.to_json_dict()
        assert d == {
            "q": 3,
            "char_index": 1,
            "min_abs": row.min_abs,
            "argmin_sigma": row.argmin_sigma,
            "sign_changes": 0,
        }
        json.dumps(d)

    def test_coarse_grid_step_respected(self):
        rows = nonvanishing_survey(4, grid_step=0.1)
        assert len(rows) == 2
        for row in rows:
            # argmin must sit on the 0.1 grid
            assert abs(row.argmin_sigma / 0.1 - round(row.argmin_sigma / 0.1)) < 1e-9


def direct_survey(q_max, grid_step):
    """The survey rows recomputed one character at a time through
    ``scan_zeros``, the reference path."""
    rows = []
    for q in range(1, q_max + 1):
        for index, chi in enumerate(enumerate_real_characters(q)):
            if not chi.is_principal:
                result = lseries.scan_zeros(chi, *audit_module._scan_grid(grid_step))
                rows.append((chi, result))
    return rows


class TestSharedSurvey:
    @pytest.mark.parametrize("q_max,grid_step", [(60, 0.05), (30, 0.01), (200, 0.1)])
    def test_rows_match_per_character_scans(self, q_max, grid_step):
        rows = nonvanishing_survey(q_max, grid_step)
        want = direct_survey(q_max, grid_step)
        assert len(rows) == len(want)
        for row, (chi, result) in zip(rows, want):
            assert (row.q, row.sign_changes) == (chi.modulus, len(result.brackets))
            assert row.argmin_sigma == result.argmin_sigma
            if chi.conductor == chi.modulus:
                assert row.min_abs == result.min_abs, (row.q, row.char_index)
            else:
                assert abs(row.min_abs - result.min_abs) <= 1e-9 * max(1.0, result.min_abs)

    def test_euler_factor_route_matches_mpmath(self):
        # every imprimitive real character with q <= 100, at three sigmas
        mpmath = pytest.importorskip("mpmath")
        sigmas = (0.01, 0.3, 0.77)
        checked = 0
        for q in range(1, 101):
            hurwitz = {}  # zeta(sigma, a/q) at 20 digits, shared by the characters mod q
            for chi in enumerate_real_characters(q):
                f = chi.conductor
                if chi.is_principal or f == q:
                    continue
                (star,) = [
                    c for c in enumerate_real_characters(f)
                    if c.conductor == f
                    and all(v == c.values[n % f] for n, v in enumerate(chi.values) if v)
                ]
                evs = [lseries.evaluate(star, sigma) for sigma in sigmas]
                got = audit_module._induced_values(chi, star, sigmas, [ev.value.real for ev in evs])
                # the star's error estimates, scaled by the same Euler factors
                errs = audit_module._induced_values(chi, star, sigmas, [ev.err_estimate for ev in evs])
                for sigma, value, err in zip(sigmas, got, errs):
                    with mpmath.workdps(20):
                        s = mpmath.mpf(sigma)
                        for a, v in enumerate(chi.values):
                            if v and (sigma, a) not in hurwitz:
                                hurwitz[sigma, a] = mpmath.zeta(s, mpmath.mpf(a) / q)
                        ref = float(mpmath.mpf(q) ** -s * mpmath.fsum(
                            v * hurwitz[sigma, a] for a, v in enumerate(chi.values) if v
                        ))
                    assert abs(value - ref) <= min(err, 1e-12 * max(1.0, abs(ref))), (q, sigma)
                    checked += 1
        assert checked == 3 * 177

    def test_hurwitz_calls_only_for_primitive_characters(self, monkeypatch):
        calls = []
        hurwitz = lseries._hurwitz

        def counted(s, xs, tol, *rest):
            calls.append(len(xs))
            return hurwitz(s, xs, tol, *rest)

        scans = []
        scan_zeros = audit_module.scan_zeros

        def counted_scan(chi, *grid):
            scans.append(chi)
            return scan_zeros(chi, *grid)

        monkeypatch.setattr(lseries, "_hurwitz", counted)
        monkeypatch.setattr(audit_module, "scan_zeros", counted_scan)
        assert len(nonvanishing_survey(30, 0.1)) == 50
        # 19 of the 50 rows are primitive, one scan_zeros each on the 9-point
        # grid; the 31 imprimitive rows make no Hurwitz call
        assert len(scans) == 19
        assert all(chi.conductor == chi.modulus for chi in scans)
        assert len(calls) == 19 * 9

    def test_forced_sign_change_is_reported_and_bisected_through_evaluate(self, monkeypatch):
        root_at = 0.4371

        def fake_value(sigma):
            return LEvaluation(
                value=complex(sigma - root_at, 0.0), method="hurwitz", n_used=1, err_estimate=1e-15
            )

        evaluated = set()

        def fake_evaluate(chi, s, *, tol=1e-10):
            evaluated.add((chi.modulus, chi.values))
            return fake_value(complex(s).real)

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        rows = nonvanishing_survey(12, grid_step=0.1)
        # every row reports its primitive's bracket; only the primitive
        # characters are scanned and bisected, no imprimitive one is evaluated
        assert [r.sign_changes for r in rows] == [1] * len(rows)
        chars = [enumerate_real_characters(r.q)[r.char_index] for r in rows]
        assert evaluated == {(c.modulus, c.values) for c in chars if c.conductor == c.modulus}
        assert any(c.conductor < c.modulus for c in chars)

    def test_inducing_lookup_miss_is_an_arithmetic_error(self, monkeypatch):
        # the real non-principal character mod 9 is induced from the one mod
        # 3; claim a conductor with no stored primitive character (2) or with
        # one of the other sign, which does not induce it (5)
        real = audit_module.enumerate_real_characters
        for conductor in (2, 5):

            def wrong_conductor(q, conductor=conductor):
                chars = real(q)
                if q == 9:
                    chars = [c if c.is_principal else replace(c, conductor=conductor) for c in chars]
                return chars

            monkeypatch.setattr(audit_module, "enumerate_real_characters", wrong_conductor)
            with pytest.raises(
                ArithmeticError, match=f"conductor {conductor} induces character 1 mod 9"
            ):
                nonvanishing_survey(12)

    def test_discriminant_names_the_real_primitive_character(self):
        # d = chi(-1) * conductor is one key per real primitive character, and
        # chi is the Kronecker symbol (d/.); without the sign the two
        # characters of conductor 8, 24, 40, ... would share a key
        seen = set()
        for f in range(1, 601):
            for chi in enumerate_real_characters(f):
                if chi.conductor != f or chi.is_principal:
                    continue
                d = chi.values[f - 1] * f
                assert d not in seen, d
                seen.add(d)
                assert all(v == kronecker_symbol(d, n) for n, v in enumerate(chi.values)), d
        assert {8, -8, 24, -24} <= seen
