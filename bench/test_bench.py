"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

import oracles
import run
import spans
import workloads

lab = run.load_library()


@pytest.fixture
def small_workloads(monkeypatch):
    """The three workloads at reduced sizes, so a traced run takes seconds."""
    monkeypatch.setattr(workloads, "SURVEY_Q_MAX", 12)
    monkeypatch.setattr(workloads, "LV_MODULI", range(30, 60))
    slots = [(target, high) for (_, high), target in zip(workloads.LV_SLOTS, (16, 16, 24, 24))]
    monkeypatch.setattr(workloads, "LV_SLOTS", tuple(slots))
    monkeypatch.setattr(workloads, "LV_CHARS", 3)
    truncation_units = workloads.Truncation.units

    def few_ops(self, seed):
        for unit in truncation_units(self, seed):
            keep = sorted(unit["order"][:12])
            yield {"ops": [unit["ops"][k] for k in keep], "order": list(range(len(keep)))}

    monkeypatch.setattr(workloads.Truncation, "units", few_ops)
    return [workloads.Survey(), workloads.LValues(), workloads.Truncation()]


def test_computed_counts_repeat_for_the_same_seed(small_workloads):
    for workload in small_workloads:
        results = []
        for _ in range(2):
            tally = run.Tally()
            metrics = run.measure_traced(workload, lab, workload.units(7), 0.0, tally)
            tally.run_deferred()
            assert tally.failed == [], (workload.name, tally.failed)
            results.append({k: v for k, (v, unit, _) in metrics.items() if unit in ("count", "B")})
        assert results[0] == results[1], workload.name
        assert any(results[0].values()), workload.name


def test_different_seeds_give_different_inputs(small_workloads):
    for workload in small_workloads:
        assert repr(next(workload.units(1))) != repr(next(workload.units(2))), workload.name


def test_op_percentiles_come_from_the_mean_unit_profile(monkeypatch):
    """Op k's latency is averaged over the units before percentiles are
    taken, so a percentile never falls between two kinds of op; times are
    scaled by the nominal over the measured reference time."""

    class Fixed:
        reference_mix = "exact"

        def run(self, lab, unit):
            return [workloads.OpRecord("op", {}, seconds=s) for s in unit]

        def check(self, lab, unit, records):
            return workloads.Verdict()

    monkeypatch.setattr(run, "interpreter_start", lambda: 0.5)
    for host_slowdown in (1.0, 2.0):
        monkeypatch.setattr(run, "reference_s", lambda mix: run.REFERENCE_NOMINAL_S * host_slowdown)
        units = iter([[0.001, 0.010], [0.003, 0.030], [0.002, 0.020]])
        metrics, refs = run.measure(Fixed(), lab, units, 0.0, run.Tally(), 0.25)
        assert metrics["op_p50_ms"][0] == pytest.approx(11.0 / host_slowdown)
        assert metrics["op_p90_ms"][0] == pytest.approx(18.2 / host_slowdown)
        assert metrics["op_p50_ms"][2] == 6
        assert metrics["setup_s"][:2] == (pytest.approx(0.75 / host_slowdown), "s")
        assert len(refs) == 3 * run.REFERENCE_PASSES


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    tree = [
        spans.Span("root", -1, 0.0, 10.0),
        spans.Span("a", 0, 1.0, 4.0),
        spans.Span("b", 0, 5.0, 9.0),
        spans.Span("c", 2, 6.0, 7.0),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        spans.Span("audit.run_audit", -1, 0.0, 10.0, raised=True),
        spans.Span("lseries.scan_zeros", 0, 1.0, 9.0),
        spans.Span("lseries.evaluate", 1, 2.0, 3.0, info={"method": "hurwitz", "n_used": 20, "q": 5}),
        spans.Span("lseries.evaluate", 1, 4.0, 6.0, info={"method": "grouped", "n_used": 256, "q": 5}),
        spans.Span("characters.enumerate_characters", -1, 11.0, 13.0, info={"built": 4, "entries": 20}),
    ]
    metrics = {k: v for k, (v, _) in spans.layer_metrics(tree, 10.0, 12.0).items()}
    assert metrics["audit.run_audit.self_s"] == 2.0
    assert metrics["audit.run_audit.raised"] == 1
    assert metrics["lseries.scan_zeros.self_s"] == 5.0
    assert metrics["lseries.scan_zeros.evals_per_scan"] == 2
    assert metrics["lseries.evaluate.self_s"] == 3.0
    assert metrics["lseries.evaluate.grouped_self_s"] == 2.0
    assert metrics["lseries.hurwitz.terms"] == 4 * 20  # phi(5) units times the shift
    assert metrics["characters.built"] == 4
    assert metrics["characters.entries_per_s"] == 10.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)


def test_tracer_sees_package_and_module_names_and_restores_them():
    chi = lab.enumerate_real_characters(5)[1]
    originals = (lab.evaluate, lab.lseries.evaluate, lab.audit.scan_zeros)
    with spans.Tracer().install(lab) as tracer:
        lab.evaluate(chi, 0.5)
        lab.lseries.scan_zeros(chi, 0.1, 0.9, 3)
    assert (lab.evaluate, lab.lseries.evaluate, lab.audit.scan_zeros) == originals
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["lseries.evaluate", "lseries.scan_zeros"]
    assert all(s.parent == 1 for s in tracer.spans[2:]) and len(tracer.spans) == 5


def test_tracer_skips_missing_names(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "lseries", ("evaluate", "no_such_function"))
    monkeypatch.setitem(spans.TRACED, "no_such_module", ("main",))
    with spans.Tracer().install(lab) as tracer:
        lab.evaluate(lab.enumerate_real_characters(5)[1], 0.5)
    assert [s.name for s in tracer.spans][-1] == "lseries.evaluate"


@pytest.mark.parametrize("q", range(1, 31))
def test_brute_force_real_characters_match_the_library(q):
    assert oracles.real_character_tables(q) == tuple(c.values for c in lab.enumerate_real_characters(q))


def test_corrupted_survey_rows_are_caught():
    rows = lab.nonvanishing_survey(12)
    assert oracles.check_survey_rows(rows, 12, 0.01) == []
    assert oracles.check_survey_row_mp(rows[3]) == []
    assert oracles.check_survey_rows(rows[1:], 12, 0.01)
    flipped = dataclasses.replace(rows[2], sign_changes=1)
    assert oracles.check_survey_rows(rows[:2] + [flipped] + rows[3:], 12, 0.01)
    assert oracles.check_survey_row_mp(dataclasses.replace(rows[3], min_abs=rows[3].min_abs * (1 + 1e-6)))


def test_corrupted_l_value_is_caught():
    chi = lab.enumerate_characters(13)[5]
    for s in (1.0, complex(0.5, 14.0)):
        ev = lab.evaluate(chi, s)
        assert workloads._check_evaluation_mp(chi.values, s, ev) == workloads.Verdict()
        bad = dataclasses.replace(ev, value=ev.value + 1e-7)
        assert workloads._check_evaluation_mp(chi.values, s, bad).failed


def _cli(argv):
    out = io.StringIO()
    assert lab.cli.main(argv, out=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_corrupted_cli_output_is_caught(fmt):
    values = oracles.real_character_tables(12)[2]
    s, ns = complex(0.6, 2.0), [30, 300, 1000]
    text = _cli(["pappus", "check", "-q", "12", "-k", "2", "-s", "0.6+2.0i", "-N", "1000", "--format", fmt])
    assert oracles.check_pappus_output(text, fmt, values, s, 1000) == []
    assert oracles.check_pappus_output(text, fmt, values, s, 996)  # drops n = 997
    assert oracles.check_pappus_output(text, fmt, oracles.real_character_tables(12)[1], s, 1000)

    text = _cli(["audit", "-q", "12", "-k", "2", "-s", "0.6+2.0i", "-N", "30,300,1000", "--format", fmt])
    assert oracles.check_audit_output(text, fmt, values, s, ns) == []
    if fmt == "json":
        claims = json.loads(text)
        claims[0]["evidence"][1][1] = 1e-6
        assert oracles.check_audit_output(json.dumps(claims), fmt, values, s, ns)
        claims = json.loads(text)
        claims[4]["evidence"][0][1] += 1
        assert oracles.check_audit_output(json.dumps(claims), fmt, values, s, ns)
        claims = json.loads(text)
        claims[6]["evidence"][2][1] = claims[6]["evidence"][1][1] / 2
        assert oracles.check_audit_output(json.dumps(claims), fmt, values, s, ns)
    else:
        assert oracles.check_audit_output(text.replace("no-zero-found", "sign-change-found"), fmt, values, s, ns)


def test_known_defect_is_counted_apart_from_failures():
    workload = workloads.Truncation()
    unit = next(workload.units(3))
    audits = [op for op in unit["ops"] if op["kind"] == "lib_audit"][:2]
    records = [workloads._run_truncation_op(lab, op) for op in audits]
    verdict = workload.check(lab, {"ops": audits}, records)
    assert len(verdict.defects) == 2 and verdict.failed == []
    records[0].error = RuntimeError("unexpected")
    assert len(workload.check(lab, {"ops": audits}, records).failed) == 1
