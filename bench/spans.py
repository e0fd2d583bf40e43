"""Outside-in span tracing of the lseries_lab layers.

The benchmark does not instrument the library.  ``Tracer.install`` rebinds
each public function listed in ``TRACED`` to a timing wrapper in every
namespace that holds it -- the defining module, every sibling module that
imported it by name, and the ``lseries_lab`` package itself -- and restores
the originals on exit.  Calls made through any of those names therefore open
a span: name, start, end, the enclosing span, whether it raised, and a few
computed counts read from the arguments and the return value.

Per-term helpers (``rect_area``, ``cylinder_volume``, ``as_lpoint``) are
deliberately not traced: they run once per series term and the wrapper would
cost more than the work.  Names missing from a module are skipped, so the
tracer keeps working when a later version deletes a function.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from math import gcd

# layer module -> public functions traced in it.
TRACED = {
    "characters": ("enumerate_characters", "enumerate_real_characters", "principal_character"),
    "lseries": ("evaluate", "scan_zeros", "partial_sum", "hurwitz_zeta"),
    "resolution": (
        "build_vectors",
        "formal_norm",
        "formal_cosine",
        "reconstruct_identity",
        "phase_series_sums",
    ),
    "cgeom": ("principal_sqrt",),
    "rotation": (
        "step_profile",
        "barycenter",
        "barycenter_quadrature",
        "pappus_check",
        "transformed_equation_residual",
    ),
    "audit": ("run_audit", "nonvanishing_survey"),
    "cli": ("main",),
}


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _note_characters(args, kwargs, result):
    chars = result if isinstance(result, list) else [result]
    return {"built": len(chars), "entries": sum(c.modulus for c in chars)}


def _note_evaluate(args, kwargs, result):
    chi = _arg(args, kwargs, 0, "chi")
    return {"method": result.method, "n_used": result.n_used, "q": chi.modulus}


def _note_n_terms(position, name):
    return lambda args, kwargs, result: {"terms": int(_arg(args, kwargs, position, name))}


def _note_cli(args, kwargs, result):
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    getvalue = getattr(out, "getvalue", None)
    return {"out_bytes": len(getvalue().encode()) if getvalue else 0}


NOTES = {
    "characters.enumerate_characters": _note_characters,
    "characters.enumerate_real_characters": _note_characters,
    "characters.principal_character": _note_characters,
    "lseries.evaluate": _note_evaluate,
    "lseries.partial_sum": _note_n_terms(2, "n_terms"),
    "resolution.build_vectors": _note_n_terms(2, "n_terms"),
    "rotation.step_profile": _note_n_terms(2, "n_rects"),
    "rotation.pappus_check": _note_n_terms(2, "n_rects"),
    "rotation.transformed_equation_residual": _note_n_terms(2, "n_terms"),
    "cli.main": _note_cli,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "raised", "info")

    def __init__(self, name, parent, start=0.0, end=0.0, raised=False, info=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.raised = raised
        self.info = info or {}


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        prefix = package.__name__ + "."
        namespaces = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m is not None
        ]
        for layer, names in TRACED.items():
            module = sys.modules.get(prefix + layer)
            if module is None:
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._undo.append((namespace, attr, original))
        return self

    def uninstall(self):
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


@functools.cache
def _phi(q: int) -> int:
    return sum(1 for a in range(q) if gcd(a, q) == 1)


def percentile(values, p: int) -> float:
    """The p-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


# (metric name, unit) in report order; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("characters.build_self_s", "s"),
    ("characters.built", "count"),
    ("characters.entries_per_s", "1/s"),
    ("lseries.evaluate.calls", "count"),
    ("lseries.evaluate.self_s", "s"),
    ("lseries.evaluate.p50_us", "us"),
    ("lseries.evaluate.p90_us", "us"),
    ("lseries.evaluate.grouped_self_s", "s"),
    ("lseries.hurwitz.terms", "count"),
    ("lseries.hurwitz.terms_per_s", "1/s"),
    ("lseries.scan_zeros.calls", "count"),
    ("lseries.scan_zeros.self_s", "s"),
    ("lseries.scan_zeros.evals_per_scan", "count"),
    ("lseries.partial_sum.calls", "count"),
    ("lseries.partial_sum.terms", "count"),
    ("lseries.partial_sum.self_s", "s"),
    ("lseries.partial_sum.terms_per_s", "1/s"),
    ("resolution.build_vectors.self_s", "s"),
    ("resolution.build_vectors.terms", "count"),
    ("resolution.formal.self_s", "s"),
    ("resolution.reconstruct_identity.self_s", "s"),
    ("rotation.step_profile.self_s", "s"),
    ("rotation.barycenter.self_s", "s"),
    ("rotation.barycenter_quadrature.self_s", "s"),
    ("rotation.pappus_check.self_s", "s"),
    ("rotation.transformed_equation_residual.self_s", "s"),
    ("rotation.terms", "count"),
    ("cgeom.principal_sqrt.calls", "count"),
    ("audit.run_audit.calls", "count"),
    ("audit.run_audit.self_s", "s"),
    ("audit.run_audit.raised", "count"),
    ("audit.nonvanishing_survey.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.out_bytes", "B"),
    ("trace.overhead_frac", "frac"),
)


def layer_metrics(spans, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from one traced pass; counts are computed from
    arguments and return values, so they repeat exactly for equal inputs."""
    own = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    def total(*names):
        return sum((self_s.get(n, 0.0) for n in names), 0.0)

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    chars = tuple(f"characters.{n}" for n in TRACED["characters"])
    build_s = total(*chars)
    built = sum(info_sum(n, "built") for n in chars)
    entries = sum(info_sum(n, "entries") for n in chars)

    evals = [(s, t) for s, t in zip(spans, own) if s.name == "lseries.evaluate"]
    durations = [s.end - s.start for s, _ in evals]
    hurwitz = [(s, t) for s, t in evals if s.info.get("method") == "hurwitz"]
    hurwitz_terms = sum(_phi(s.info["q"]) * s.info["n_used"] for s, _ in hurwitz)
    hurwitz_s = sum((t for _, t in hurwitz), 0.0)
    grouped_s = sum((t for s, t in evals if s.info.get("method") == "grouped"), 0.0)

    scans = calls.get("lseries.scan_zeros", 0)
    scan_index = {i for i, s in enumerate(spans) if s.name == "lseries.scan_zeros"}
    scan_evals = sum(1 for s, _ in evals if s.parent in scan_index)

    ps_terms = info_sum("lseries.partial_sum", "terms")
    ps_s = total("lseries.partial_sum")
    rotation_terms = sum(
        info_sum(f"rotation.{n}", "terms")
        for n in ("step_profile", "pappus_check", "transformed_equation_residual")
    )

    values = {
        "characters.build_self_s": build_s,
        "characters.built": built,
        "characters.entries_per_s": _rate(entries, build_s),
        "lseries.evaluate.calls": len(evals),
        "lseries.evaluate.self_s": total("lseries.evaluate"),
        "lseries.evaluate.p50_us": percentile(durations, 50) * 1e6,
        "lseries.evaluate.p90_us": percentile(durations, 90) * 1e6,
        "lseries.evaluate.grouped_self_s": grouped_s,
        "lseries.hurwitz.terms": hurwitz_terms,
        "lseries.hurwitz.terms_per_s": _rate(hurwitz_terms, hurwitz_s),
        "lseries.scan_zeros.calls": scans,
        "lseries.scan_zeros.self_s": total("lseries.scan_zeros"),
        "lseries.scan_zeros.evals_per_scan": scan_evals / scans if scans else 0.0,
        "lseries.partial_sum.calls": calls.get("lseries.partial_sum", 0),
        "lseries.partial_sum.terms": ps_terms,
        "lseries.partial_sum.self_s": ps_s,
        "lseries.partial_sum.terms_per_s": _rate(ps_terms, ps_s),
        "resolution.build_vectors.self_s": total("resolution.build_vectors"),
        "resolution.build_vectors.terms": info_sum("resolution.build_vectors", "terms"),
        "resolution.formal.self_s": total("resolution.formal_norm", "resolution.formal_cosine"),
        "resolution.reconstruct_identity.self_s": total("resolution.reconstruct_identity"),
        "rotation.step_profile.self_s": total("rotation.step_profile"),
        "rotation.barycenter.self_s": total("rotation.barycenter"),
        "rotation.barycenter_quadrature.self_s": total("rotation.barycenter_quadrature"),
        "rotation.pappus_check.self_s": total("rotation.pappus_check"),
        "rotation.transformed_equation_residual.self_s": total(
            "rotation.transformed_equation_residual"
        ),
        "rotation.terms": rotation_terms,
        "cgeom.principal_sqrt.calls": calls.get("cgeom.principal_sqrt", 0),
        "audit.run_audit.calls": calls.get("audit.run_audit", 0),
        "audit.run_audit.self_s": total("audit.run_audit"),
        "audit.run_audit.raised": sum(1 for s in spans if s.name == "audit.run_audit" and s.raised),
        "audit.nonvanishing_survey.self_s": total("audit.nonvanishing_survey"),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": total("cli.main"),
        "cli.main.out_bytes": info_sum("cli.main", "out_bytes"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}
