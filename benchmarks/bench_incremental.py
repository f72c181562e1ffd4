"""Acceptance benchmark: dirty-cone re-propagation vs full recompute.

The claim under test (this PR's tentpole): after a single-gate edit,
:class:`repro.incremental.StatsCache` re-propagates only the edited
gate's transitive fanout cone, making the refresh at least 10x faster
than recomputing the whole circuit from scratch — on the largest suite
circuit, for both the analytic and the sampled backend — while
returning bit-identical statistics.

Run with::

    pytest -m bench benchmarks/bench_incremental.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_INCR_BENCH_OUT`` writes the canonical JSON artifact there
(``repro bench`` style).
"""

import os
import time

import numpy as np
import pytest

pytestmark = pytest.mark.bench

from repro.bench.runner import SCHEMA_VERSION, environment_meta, \
    write_artifact
from repro.bench.suite import benchmark_suite, get_case
from repro.incremental import SampledBackend, StatsCache
from repro.incremental.backends import AnalyticBackend
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.synth.mapper import map_circuit

EDITS = 40
REQUIRED_SPEEDUP = 10.0
LANES = 256
STEPS = 32


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


def _random_single_gate_edits(circuit, count, seed=0):
    """(gate_name, config) reorder edits over random multi-config gates."""
    rng = np.random.default_rng(seed)
    gates = [g for g in circuit.gates if g.template.num_configurations() > 1]
    edits = []
    for _ in range(count):
        gate = gates[int(rng.integers(len(gates)))]
        configurations = gate.template.configurations()
        edits.append((gate.name, configurations[int(rng.integers(len(configurations)))]))
    return edits


def _measure(circuit, input_stats, edits, cache, full_recompute):
    """Per-edit incremental refresh vs from-scratch recompute times."""
    incremental_s = 0.0
    full_s = 0.0
    cones = []
    for gate_name, config in edits:
        circuit.set_config(gate_name, config)
        cones.append(len(cache.dirty_gates))
        start = time.perf_counter()
        cache.refresh()
        incremental_s += time.perf_counter() - start
        start = time.perf_counter()
        reference = full_recompute()
        full_s += time.perf_counter() - start
        assert cache.stats() == reference, f"divergence after editing {gate_name}"
    return incremental_s, full_s, cones


@pytest.fixture(scope="module")
def setting():
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    return name, circuit, input_stats


def _report(label, name, circuit, edits, incremental_s, full_s, cones):
    speedup = full_s / incremental_s
    print(f"\n{name}: {len(circuit)} gates, {len(edits)} single-gate edits "
          f"[{label}]")
    print(f"  full recompute : {full_s:8.3f}s")
    print(f"  dirty-cone     : {incremental_s:8.3f}s "
          f"(mean cone {sum(cones) / len(cones):.1f} gates)")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    return {
        "backend": label,
        "edits": len(edits),
        "mean_cone_gates": sum(cones) / len(cones),
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": speedup,
    }


RESULTS = []


def test_analytic_incremental_speedup(setting):
    name, circuit, input_stats = setting
    circuit = circuit.copy()
    edits = _random_single_gate_edits(circuit, EDITS, seed=1)
    cache = StatsCache(circuit, input_stats, backend=AnalyticBackend())
    incremental_s, full_s, cones = _measure(
        circuit, input_stats, edits, cache,
        lambda: local_stats(circuit, input_stats),
    )
    cache.close()
    row = _report("analytic", name, circuit, edits, incremental_s, full_s, cones)
    RESULTS.append((name, len(circuit), row))
    assert row["speedup"] >= REQUIRED_SPEEDUP


def test_sampled_incremental_speedup(setting):
    name, circuit, input_stats = setting
    circuit = circuit.copy()
    edits = _random_single_gate_edits(circuit, EDITS, seed=2)
    cache = StatsCache(circuit, input_stats, backend="sampled",
                       lanes=LANES, steps=STEPS, seed=0)
    dt = cache.backend.dt  # frozen at full(); reuse for the reference runs

    def full_recompute():
        return SampledBackend(lanes=LANES, steps=STEPS, dt=dt,
                              seed=0).full(circuit, input_stats)

    incremental_s, full_s, cones = _measure(
        circuit, input_stats, edits, cache, full_recompute,
    )
    cache.close()
    row = _report("sampled", name, circuit, edits, incremental_s, full_s, cones)
    RESULTS.append((name, len(circuit), row))
    assert row["speedup"] >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_INCR_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_INCR_BENCH_OUT")
    if not RESULTS:
        pytest.skip("speedup tests did not run")
    if not out_path:
        pytest.skip("set REPRO_INCR_BENCH_OUT to write the artifact")
    name, gates, _ = RESULTS[0]
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "incremental",
            "circuit": name,
            "gates": gates,
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "meta": environment_meta(),
        "results": [row for _, _, row in RESULTS],
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
