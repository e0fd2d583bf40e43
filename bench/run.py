"""lseries_lab benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload {survey,lvalues,truncation} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nothing is installed.  One caller runs
the workload's units back to back in a closed loop, with no threads.  The
first unit is a discarded warm-up, because a fresh interpreter runs it about
a third slower than later ones.  Then units are timed until ``--seconds`` of
timed work is done (at least three units).  Outputs are checked against the
oracles in ``oracles.py`` after each unit, outside the timed region; the
mpmath checks run last, after the peak RSS is read.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (mean unit time),
``op_p50_ms`` / ``op_p90_ms`` (percentiles over the ops of one unit, each
op's latency averaged over the timed units), ``setup_s`` (mean time for a
fresh interpreter to import the package, sampled evenly through the run,
plus input generation) and ``peak_rss_mb``.  ``--trace 1`` runs a fixed
number of units, each once untraced and once with every public library
function wrapped (``spans.py``), and reports the per-layer metrics.

Every time is a mean over the whole run, not a median of its parts, and is
scaled to a nominal host speed.  On a shared host the speed of pure-Python
code switches between levels up to about 1.7x apart for seconds to minutes
at a time: a median jumps between the levels from run to run, where a mean
moves smoothly with the share of time spent in each, and a 30-second run
still sees only part of a swing.  So after every unit, outside the timed
region, the benchmark times a fixed reference loop that does the workload's
kinds of work without calling the library (``reference_s``), and reports
each time multiplied by
REFERENCE_NOMINAL_S / (the run's mean reference time): the time the run
would have taken on a host where the loop takes REFERENCE_NOMINAL_S.  A
change to the library moves the unit times and not the loop, so it shows in
full.  The raw mean reference time and the factor are in the provenance.

The traced run's per-layer times are not scaled; it times the reference loop
before and after, for the provenance only.  Lines starting with ``#`` give
provenance and every metric with its sample count; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {w.name: w for w in (workloads.Survey(), workloads.LValues(), workloads.Truncation())}
SETUP_STARTS = 16
MIN_UNITS = 3
REFERENCE_NOMINAL_S = 0.010
REFERENCE_PASSES = 3


def load_library():
    """Import lseries_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "lseries_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no lseries_lab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lseries_lab
    import lseries_lab.cli  # noqa: F401  (the package does not import its CLI)

    if not Path(lseries_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported lseries_lab from {lseries_lab.__file__}, not {SRC}")
    return lseries_lab


def interpreter_start() -> float:
    """Seconds for a fresh interpreter to start and import the package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lseries_lab, lseries_lab.cli"
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - begin


def generate_inputs(workload, seed: int) -> tuple:
    """(seconds, unit stream): the time to generate the first unit's inputs."""
    begin = time.perf_counter()
    units = workload.units(seed)
    first = next(units)
    return time.perf_counter() - begin, itertools.chain([first], units)


class Tally:
    """Ops attempted and failed, known-defect ops, and deferred checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list = []
        self.defects: list = []
        self.deferred: list = []

    def add(self, workload, lab, unit, records) -> list:
        ops = [r for r in records if r.kind != "group"]
        verdict = workload.check(lab, unit, records)
        self.attempted += len(ops)
        self.failed += verdict.failed
        self.defects += verdict.defects
        if not self.deferred:
            self.deferred = verdict.deferred
        return ops

    def run_deferred(self):
        for check in self.deferred:
            verdict = check()
            self.failed += verdict.failed
            self.defects += verdict.defects
        self.deferred = []


def run_unit(workload, lab, unit) -> tuple:
    begin = time.perf_counter()
    records = workload.run(lab, unit)
    return time.perf_counter() - begin, records


def measure(workload, lab, units, seconds: float, tally: Tally, generate_s: float) -> tuple:
    """(metrics, reference times).  Between units, outside the timed region,
    the reference loop runs REFERENCE_PASSES times and fresh interpreters
    import the package, SETUP_STARTS of them spread evenly over the run."""
    unit_s, profiles, starts, refs, total = [], [], [], [], 0.0
    while total < seconds or len(unit_s) < MIN_UNITS:
        unit = next(units)
        elapsed, records = run_unit(workload, lab, unit)
        total += elapsed
        unit_s.append(elapsed)
        profiles.append([r.seconds for r in tally.add(workload, lab, unit, records)])
        del records
        refs += [reference_s(workload.reference_mix) for _ in range(REFERENCE_PASSES)]
        share = min(1.0, total / seconds) if seconds > 0 else 1.0
        while len(starts) < max(1, SETUP_STARTS * share):
            starts.append(interpreter_start())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = REFERENCE_NOMINAL_S / statistics.fmean(refs)
    # Op k of every unit is the same kind of op; its mean over the units
    # gives one unit's latency profile, whose percentiles are reported.
    profile = [statistics.fmean(times) * scale for times in zip(*profiles, strict=True)]
    ops = sum(map(len, profiles))
    metrics = {
        "setup_s": ((statistics.fmean(starts) + generate_s) * scale, "s", len(starts)),
        "wall_s": (statistics.fmean(unit_s) * scale, "s", len(unit_s)),
        "op_p50_ms": (spans.percentile(profile, 50) * 1e3, "ms", ops),
        "op_p90_ms": (spans.percentile(profile, 90) * 1e3, "ms", ops),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    return metrics, refs


def measure_traced(workload, lab, units, seconds: float, tally: Tally) -> dict:
    """A fixed number of units, each run once untraced and once traced, so
    the computed counts depend only on the seed and the run length.  Both
    passes see the same machine load, and alternating which goes first
    cancels the speed-up of repeating a unit."""
    count = max(1, round(seconds / (2 * workload.nominal_unit_s)))
    tracer = spans.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    for i, unit in enumerate(itertools.islice(units, count)):
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                with tracer.install(lab):
                    seconds_taken, records = run_unit(workload, lab, unit)
            else:
                seconds_taken, records = run_unit(workload, lab, unit)
            elapsed[traced] += seconds_taken
            tally.add(workload, lab, unit, records)
    metrics = spans.layer_metrics(tracer.spans, elapsed[False], elapsed[True])
    return {name: (value, unit, count) for name, (value, unit) in metrics.items()}


def reference_s(mix: str) -> float:
    """Seconds one pass of the fixed reference loop takes.  The "exact" mix
    does exact rational arithmetic, complex powers and dict updates, like
    character tables and Hurwitz sums off the real axis; the "float" mix adds
    real powers, logarithms and complex exponentials, like real-axis scans.
    Each tracked the host's speed swings best on the workloads that use it.
    The cyclic garbage collector is off meanwhile, so the library's heap
    cannot slow the loop and hide part of a change to the library."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        exact, power, real, counts = Fraction(0), 0j, 0.0, {}
        if mix == "exact":
            for k in range(1, 3000):
                exact += Fraction(k % 97, 101)
                power += (k + 0.5) ** complex(-0.5, 30.0)
                counts[k % 211] = counts.get(k % 211, 0) + k
        else:
            for k in range(1, 2600):
                exact += Fraction(k % 97, 101)
                power += (k + 0.5) ** complex(-0.5, 30.0) + cmath.exp(complex(0.0, 0.001 * k))
                real += (k + 0.25) ** -0.7 + math.log(k)
                counts[k % 211] = counts.get(k % 211, 0) + k
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lab = load_library()
    workload = WORKLOADS[args.workload]
    tally = Tally()
    generate_s, units = generate_inputs(workload, args.seed)
    warmup_s, _ = run_unit(workload, lab, next(units))
    if args.trace:
        refs = [reference_s(workload.reference_mix) for _ in range(REFERENCE_PASSES)]
        metrics = measure_traced(workload, lab, units, args.seconds, tally)
        refs += [reference_s(workload.reference_mix) for _ in range(REFERENCE_PASSES)]
    else:
        metrics, refs = measure(workload, lab, units, args.seconds, tally, generate_s)
    tally.run_deferred()

    failed = min(len(tally.failed), tally.attempted)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": _git_sha(),
        "warmup": {"units_discarded": 1, "seconds": warmup_s},
        "reference": {
            "mix": workload.reference_mix,
            "passes": len(refs),
            "mean_s": statistics.fmean(refs),
            "scale": REFERENCE_NOMINAL_S / statistics.fmean(refs),
            "scaled": not args.trace,
        },
        "load": "closed loop, one caller, no threads",
    }
    print("# provenance " + json.dumps(provenance))
    for name, (value, unit, samples) in metrics.items():
        print(f"# {args.workload} {name} = {value!r} {unit} (n={samples})")
    defects = len(tally.defects)
    print(
        f"# {args.workload} fail_frac = {failed / tally.attempted!r} ({failed} of {tally.attempted} ops); "
        f"known_defect_frac = {defects / tally.attempted!r} ({defects} ops)"
    )
    for kind, text in workloads.KNOWN_DEFECTS.items():
        hits = sum(1 for d in tally.defects if d.startswith(kind + ":"))
        if hits:
            print(f"# known defect {kind} ({hits} ops): {text}")
    for problem in tally.failed[:20]:
        print(f"# FAILED {problem}")
    for defect in tally.defects[:5]:
        print(f"# DEFECT {defect}")
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
