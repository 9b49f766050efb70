"""Cold-analysis throughput: the dense bitset kernels vs the reference.

Two measurements over the benchmark suite, each taken once per
implementation (``repro.core.dense`` registry):

* **analysis stage** -- :func:`~repro.core.analysis.analyze_thread` per
  kernel, best of ``repeats`` runs, no caching anywhere.  This is the
  work a cache miss pays (web renaming, liveness, NSRs, interference
  graphs, the slot/conflict model).  The timed call also reads
  ``conflicts_at``, which a dense analysis derives on first access, so
  both implementations produce the same fields.
* **end-to-end cold allocation** -- the :mod:`~repro.harness.allocperf`
  grid (every kernel at ``nthd`` threads under three budgets from its
  own bounds) through the public pipeline with a fresh, empty analysis
  cache, so every point re-analyzes.

Fidelity is checked harder than speed: per kernel the two analyses are
reduced to a canonical SHA-256 digest over every comparable
``ThreadAnalysis`` field (orders included) and the digests must match,
and the end-to-end passes must produce byte-identical allocation
summaries.  Any mismatch invalidates the speedups.  ``repro bench
analysis`` or ``pytest benchmarks/bench_analysis.py --benchmark-only
-s`` regenerates ``benchmarks/out/BENCH_analysis.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.analysis import ThreadAnalysis, analyze_thread
from repro.core.cache import AnalysisCache, CacheStats, scoped
from repro.core.dense import set_default_analysis_impl
from repro.harness.allocperf import _alloc_summary, build_grid
from repro.harness.report import text_table
from repro.suite.registry import BENCHMARKS, load


def _canon(obj: Any) -> Any:
    """JSON-serializable canonical form: registers to strings, sets to
    sorted lists, dict keys stringified and sorted by the dump below."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(str(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def analysis_digest(an: ThreadAnalysis) -> str:
    """Canonical SHA-256 over every comparable analysis field.

    Iteration orders of the ordered fields (occupant tuples, flow edges,
    ``conflicts_at`` pair lists) are part of the digest, so two
    implementations only agree when they are bit-identical, not merely
    set-equal.
    """
    graphs = an.graphs
    payload = {
        "program": an.program.fingerprint(),
        "live_in": _canon(an.liveness.live_in),
        "live_out": _canon(an.liveness.live_out),
        "boundary": _canon(an.nsr.boundary),
        "internal": _canon(an.nsr.internal),
        "gig": _canon(graphs.gig.edges()),
        "big": _canon(graphs.big.edges()),
        "iigs": {
            str(rid): _canon(g.edges()) for rid, g in graphs.iigs.items()
        },
        "slots": _canon(an.slots),
        "flow_edges": _canon(an.flow_edges),
        "occupants": _canon(an.occupants),
        "live_across": _canon(an.live_across),
        "csb_slots_of": _canon(an.csb_slots_of),
        "defs_at": _canon(an.defs_at),
        "dying_at": _canon(an.dying_at),
        "conflicts_at": _canon(an.conflicts_at),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class AnalysisBenchReport:
    """Everything ``BENCH_analysis.json`` carries."""

    rows: List[Dict[str, Any]]
    analysis_reference_s: float
    analysis_dense_s: float
    e2e_reference_s: float
    e2e_dense_s: float
    grid_points: int
    repeats: int
    nthd: int
    digests_identical: bool
    e2e_identical: bool
    kernels: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.digests_identical and self.e2e_identical

    @property
    def analysis_speedup(self) -> float:
        return (
            self.analysis_reference_s / self.analysis_dense_s
            if self.analysis_dense_s
            else 0.0
        )

    @property
    def e2e_speedup(self) -> float:
        return (
            self.e2e_reference_s / self.e2e_dense_s
            if self.e2e_dense_s
            else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernels": self.kernels,
            "repeats": self.repeats,
            "nthd": self.nthd,
            "grid_points": self.grid_points,
            "analysis_reference_s": self.analysis_reference_s,
            "analysis_dense_s": self.analysis_dense_s,
            "analysis_speedup": self.analysis_speedup,
            "e2e_reference_s": self.e2e_reference_s,
            "e2e_dense_s": self.e2e_dense_s,
            "e2e_speedup": self.e2e_speedup,
            "digests_identical": self.digests_identical,
            "e2e_identical": self.e2e_identical,
            "identical": self.identical,
            "rows": self.rows,
        }


def _best(fn, repeats: int) -> float:
    out = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out = min(out, time.perf_counter() - start)
    return out


def _cold_pass(names: Sequence[str], nthd: int) -> Any:
    """One cold end-to-end sweep; returns (seconds, canonical JSON)."""
    with scoped(AnalysisCache(capacity=256)) as cache:
        grid = build_grid(names, nthd=nthd)
        # Building the grid probed bounds; the cold pass must not see it.
        cache.clear()
        cache.stats = CacheStats()
        start = time.perf_counter()
        summaries = [_alloc_summary(p) for p in grid]
        elapsed = time.perf_counter() - start
    return elapsed, len(grid), json.dumps(summaries, sort_keys=True)


def run_analysis_bench(
    names: Optional[Sequence[str]] = None,
    nthd: int = 4,
    repeats: int = 3,
) -> AnalysisBenchReport:
    """Measure both implementations over the suite (see module docstring).

    The process-wide implementation default is restored on exit.
    """
    names = list(names or BENCHMARKS)
    previous = set_default_analysis_impl("dense")
    try:
        rows: List[Dict[str, Any]] = []
        totals = {"reference": 0.0, "dense": 0.0}
        digests_identical = True
        for name in names:
            program = load(name)
            row: Dict[str, Any] = {"name": name}
            digests: Dict[str, str] = {}
            for impl in ("reference", "dense"):
                set_default_analysis_impl(impl)
                digests[impl] = analysis_digest(analyze_thread(program))
                # Read ``conflicts_at`` inside the timed call: a dense
                # analysis derives it on first access, the reference
                # builds it eagerly, so both sides produce every field.
                seconds = _best(
                    lambda: analyze_thread(program).conflicts_at, repeats
                )
                row[f"{impl}_s"] = seconds
                totals[impl] += seconds
            row["speedup"] = (
                row["reference_s"] / row["dense_s"] if row["dense_s"] else 0.0
            )
            row["digest"] = digests["dense"]
            row["digest_identical"] = digests["reference"] == digests["dense"]
            digests_identical &= row["digest_identical"]
            rows.append(row)

        set_default_analysis_impl("reference")
        ref_s, grid_points, ref_json = _cold_pass(names, nthd)
        set_default_analysis_impl("dense")
        dense_s, _, dense_json = _cold_pass(names, nthd)
    finally:
        set_default_analysis_impl(previous)

    return AnalysisBenchReport(
        rows=rows,
        analysis_reference_s=totals["reference"],
        analysis_dense_s=totals["dense"],
        e2e_reference_s=ref_s,
        e2e_dense_s=dense_s,
        grid_points=grid_points,
        repeats=repeats,
        nthd=nthd,
        digests_identical=digests_identical,
        e2e_identical=ref_json == dense_json,
        kernels=names,
    )


def render_analysis(report: AnalysisBenchReport) -> str:
    headers = ["kernel", "reference ms", "dense ms", "speedup", "identical"]
    rows = [
        (
            r["name"],
            f"{r['reference_s'] * 1e3:.2f}",
            f"{r['dense_s'] * 1e3:.2f}",
            f"{r['speedup']:.2f}x",
            "yes" if r["digest_identical"] else "NO",
        )
        for r in report.rows
    ]
    out = (
        f"Cold-analysis throughput: dense bitset kernels vs reference "
        f"(best of {report.repeats})\n"
    )
    out += text_table(headers, rows)
    out += (
        f"\nanalysis stage: reference {report.analysis_reference_s:.3f}s"
        f"  dense {report.analysis_dense_s:.3f}s"
        f"  ({report.analysis_speedup:.2f}x)"
        f"\ncold end-to-end ({report.grid_points} grid points, "
        f"nthd={report.nthd}): reference {report.e2e_reference_s:.3f}s"
        f"  dense {report.e2e_dense_s:.3f}s"
        f"  ({report.e2e_speedup:.2f}x)"
        f"\nidentical analyses and allocations: {report.identical}"
    )
    return out
