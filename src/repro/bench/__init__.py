"""Benchmark provenance.

Benchmarks emit ``BENCH_<name>.json`` artifacts (``benchmarks/_report``)
and the repo benchmark emits ``result.json`` (``benchmarks/perf/run.py``);
both stamp what they write with :func:`run_provenance`.  Judging a run
against another is ``benchmarks/perf/compare.py``'s job, not this
package's.
"""

from repro.bench.provenance import run_provenance

__all__ = ["run_provenance"]
