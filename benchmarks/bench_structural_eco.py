"""Acceptance benchmark: incremental structural refresh vs full rebuild.

The claim under test (the structural-ECO PR's tentpole): after a
structural edit (``AddGate`` / ``RewireNet`` / ``RemoveGate``), the
:class:`repro.incremental.StatsCache` rebuilds the circuit structure
(fanout index, topological order) and re-propagates only the affected
cone — making the refresh at least 5x faster than rebuilding the
statistics from scratch on the largest suite circuit, while staying
bit-identical to the from-scratch map after every edit.

Structural refreshes are cheaper per-edit than the ≥ 10x local-edit
floor of ``bench_incremental.py`` would suggest only in the cone
arithmetic: each one also pays an O(V+E) structure rebuild, hence the
lower 5x floor.

Run with::

    pytest -m bench benchmarks/bench_structural_eco.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_STRUCTURAL_BENCH_OUT`` writes the canonical JSON artifact
there (``repro bench`` style).
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.runner import SCHEMA_VERSION, environment_meta, \
    write_artifact
from repro.bench.suite import benchmark_suite, get_case
from repro.circuit.netlist import AddGate, RemoveGate, RewireNet
from repro.incremental import StatsCache
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.synth.mapper import map_circuit

CYCLES = 25
REQUIRED_SPEEDUP = 5.0


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


@pytest.fixture(scope="module")
def setting():
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    return name, circuit, input_stats


RESULTS = []


def _timed_refresh(circuit, input_stats, cache, edit, incremental_s, full_s):
    """Apply one structural edit; time cone refresh vs from-scratch map."""
    circuit.apply_edit(edit)
    start = time.perf_counter()
    cache.refresh()
    incremental_s[0] += time.perf_counter() - start
    start = time.perf_counter()
    reference = local_stats(circuit, input_stats)
    full_s[0] += time.perf_counter() - start
    assert cache.stats() == reference, f"divergence after {edit}"


def test_structural_incremental_speedup(setting):
    name, circuit, input_stats = setting
    circuit = circuit.copy()
    cache = StatsCache(circuit, input_stats)

    # Deterministic edit sites: round-robin over the heaviest-fanout
    # nets (the buffer-insertion family's natural targets).
    index = circuit.fanout_index()
    nets = sorted(
        (net for net in ([g.output for g in circuit.gates]
                         + list(circuit.inputs))
         if len(index.sinks(net)) >= 2),
        key=lambda net: -len(index.sinks(net)),
    )
    assert nets, "largest suite circuit has no multi-fanout net?"

    incremental_s, full_s, edits = [0.0], [0.0], 0
    for i in range(CYCLES):
        source = nets[i % len(nets)]
        other = nets[(i + 1) % len(nets)]
        name_i = f"bench_buf{i}"
        # add a (dead) inverter on the net, swing its pin to another
        # net, then sweep it away — one full structural life cycle
        cycle = (
            AddGate(name_i, "inv", (("a", source),), f"{name_i}_n"),
            RewireNet(name_i, "a", other),
            RemoveGate(name_i),
        )
        for edit in cycle:
            _timed_refresh(circuit, input_stats, cache, edit,
                           incremental_s, full_s)
            edits += 1
    cache.close()

    speedup = full_s[0] / incremental_s[0]
    print(f"\n{name}: {len(circuit)} gates, {edits} structural edits")
    print(f"  full rebuild   : {full_s[0]:8.3f}s")
    print(f"  structural incr: {incremental_s[0]:8.3f}s")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append((name, len(circuit), {
        "edits": edits,
        "full_s": full_s[0],
        "incremental_s": incremental_s[0],
        "speedup": speedup,
    }))
    assert speedup >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_STRUCTURAL_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_STRUCTURAL_BENCH_OUT")
    if not RESULTS:
        pytest.skip("speedup test did not run")
    if not out_path:
        pytest.skip("set REPRO_STRUCTURAL_BENCH_OUT to write the artifact")
    name, gates, row = RESULTS[0]
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "structural_eco",
            "circuit": name,
            "gates": gates,
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "meta": environment_meta(),
        "results": [row],
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
