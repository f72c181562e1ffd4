"""Acceptance benchmark: the obs layer's zero-overhead-when-off contract.

The claim under test (see ``src/repro/obs/README.md``): with tracing
disabled, every instrumentation touchpoint in the hot paths costs one
module-global read, one ``is not None`` test and a no-op context
manager — **under 2% of the ECO-search wall time** on the largest
suite circuit (the ``bench_eco_search.py`` workload).

Methodology (robust to machine noise): instead of A/B-ing two whole
search runs — whose run-to-run jitter easily exceeds 2% — this measures
the two factors of the overhead directly and multiplies them:

* the per-call cost of the disabled guard pattern, timed over a tight
  loop of the exact idiom the hot paths use;
* the number of touchpoints the workload actually executes, counted by
  running the same search with a tracer sinking to ``os.devnull``
  (every guard that fires emits at least one record, and spans emit
  two, so ``Tracer.records`` is a conservative upper bound).

Run with::

    pytest -m bench benchmarks/bench_obs_overhead.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_OBS_BENCH_OUT`` writes the canonical JSON artifact there
(``repro bench`` style).
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.runner import SCHEMA_VERSION, environment_meta, \
    write_artifact
from repro.bench.suite import benchmark_suite, get_case
from repro.incremental import search_circuit
from repro.obs import trace
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

#: The zero-overhead contract: disabled instrumentation must cost less
#: than this fraction of the search's wall time.
MAX_OVERHEAD = 0.02

GUARD_LOOPS = 200000

RESULTS = []


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


def disabled_guard_cost(loops: int = GUARD_LOOPS) -> float:
    """Per-call seconds of the hot-path guard while tracing is off.

    Times the exact idiom the hot paths use (global read, ``is not
    None`` test, ``with NULL_SPAN``); no baseline loop is subtracted,
    keeping the estimate conservative.
    """
    assert trace.ACTIVE is None, "guard cost must be timed with tracing off"
    start = time.perf_counter()
    for _ in range(loops):
        tracer = trace.ACTIVE
        span = tracer.span("x") if tracer is not None else trace.NULL_SPAN
        with span:
            pass
    return (time.perf_counter() - start) / loops


def test_disabled_overhead_under_two_percent():
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    gates = len(circuit)

    # Warm caches (template compilation, memoised indexes), then time
    # the untraced run — the denominator of the overhead fraction.
    search_circuit(circuit, input_stats, seed=0)
    start = time.perf_counter()
    result = search_circuit(circuit, input_stats, seed=0)
    search_s = time.perf_counter() - start

    # Touchpoint count: run the identical search with a tracer sinking
    # to devnull and read how many records it emitted.  Spans emit two
    # records per guard hit, so this over-counts the touchpoints.
    with open(os.devnull, "w") as sink:
        tracer = trace.enable(sink)
        try:
            start = time.perf_counter()
            search_circuit(circuit, input_stats, seed=0)
            traced_s = time.perf_counter() - start
            touchpoints = tracer.records
        finally:
            trace.disable()

    guard_s = disabled_guard_cost()
    overhead_s = touchpoints * guard_s
    fraction = overhead_s / search_s

    print(f"\n{name}: {gates} gates [disabled-tracing overhead]")
    print(f"  search wall-clock : {search_s:.2f}s untraced, "
          f"{traced_s:.2f}s traced to devnull ({touchpoints} records)")
    print(f"  guard cost        : {guard_s * 1e9:.0f} ns/call "
          f"({GUARD_LOOPS} loops)")
    print(f"  disabled overhead : {overhead_s * 1e3:.2f} ms upper bound = "
          f"{fraction * 100:.3f}% of the search "
          f"(required < {MAX_OVERHEAD * 100:.0f}%)")

    RESULTS.append({
        "circuit": name,
        "gates": gates,
        "trials": result.trials,
        "touchpoints": touchpoints,
        "guard_ns": guard_s * 1e9,
        "overhead_s": overhead_s,
        "search_s": search_s,
        "traced_s": traced_s,
        "overhead_fraction": fraction,
    })

    assert fraction < MAX_OVERHEAD


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_OBS_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_OBS_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the overhead test did not run")
    if not out_path:
        pytest.skip("set REPRO_OBS_BENCH_OUT to write the artifact")

    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "obs_overhead",
            "max_overhead": MAX_OVERHEAD,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
