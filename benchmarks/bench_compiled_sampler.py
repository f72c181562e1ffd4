"""Acceptance benchmark: vectorized sampled kernel + batch move pricing.

The claims under test (this PR's tentpole): the uint64-blocked sampled
kernel (:mod:`repro.compiled.sampled`) makes the cone refresh after an
edit at least **5x faster** than the big-int backend — the compiled
path settles whole word streams per gate where the object path loops
Python big-int ops per time step — and batch move pricing in the
greedy search (:mod:`repro.incremental.search`) makes a full candidate
pass at least **5x faster** than per-move ``WhatIf`` trials.  Both
stay **bit-identical**: same statistics, same power, and (for the
search) a byte-identical artifact modulo run timing and the cone-work
counter the batch path exists to shrink.

Run with::

    pytest -m bench benchmarks/bench_compiled_sampler.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_SAMPLER_BENCH_OUT`` writes the canonical JSON artifact there
(``repro bench`` style).
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.generators import random_logic
from repro.bench.runner import SCHEMA_VERSION, dumps_artifact, \
    environment_meta, strip_timing, write_artifact
from repro.incremental import StatsCache, search_circuit
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

NODES = 600
LANES = 256
STEPS = 256
EDITS = 15
SEARCH_NODES = 250
REQUIRED_SPEEDUP = 5.0

RESULTS = []


def strip_cone(value):
    if isinstance(value, dict):
        return {k: strip_cone(v) for k, v in value.items()
                if k != "gates_repropagated"}
    if isinstance(value, list):
        return [strip_cone(v) for v in value]
    return value


def test_sampled_refresh_speedup(monkeypatch):
    circuit = map_circuit(random_logic(24, NODES, seed=7))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)

    def run(compiled):
        work = circuit.copy()
        with monkeypatch.context() as patch:
            if not compiled:  # the object-graph oracle
                patch.setenv("REPRO_COMPILED", "0")
            cache = StatsCache(work, dict(input_stats), backend="sampled",
                               lanes=LANES, steps=STEPS, seed=4)
        cache.stats()  # warm: streams drawn, circuit settled
        gates = [g for g in work.gates
                 if g.template.num_configurations() > 1]
        elapsed = 0.0
        for gate in gates[:EDITS]:
            work.set_config(gate.name,
                            gate.template.configurations()[1])
            start = time.perf_counter()
            cache.stats()
            elapsed += time.perf_counter() - start
        stats = dict(cache.stats())
        power = cache.total_power()
        reprop = cache.gates_repropagated
        cache.close()
        return elapsed / EDITS, stats, power, reprop

    object_s, ref_stats, ref_power, ref_reprop = run(False)
    compiled_s, flat_stats, flat_power, flat_reprop = run(True)
    assert flat_stats == ref_stats, "compiled sampled refresh drifted bit-wise"
    assert flat_power == ref_power
    assert flat_reprop == ref_reprop  # same cones, faster per gate
    speedup = object_s / compiled_s
    print(f"\n{circuit.name}: {len(circuit)} gates, {LANES} lanes x "
          f"{STEPS} steps [sampled cone refresh]")
    print(f"  big-int backend : {object_s * 1e3:8.2f}ms/edit")
    print(f"  compiled        : {compiled_s * 1e3:8.2f}ms/edit")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "sampled-refresh",
        "circuit": circuit.name,
        "gates": len(circuit),
        "lanes": LANES,
        "steps": STEPS,
        "edits": EDITS,
        "object_s": object_s,
        "compiled_s": compiled_s,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_batch_pricing_pass_speedup(monkeypatch):
    circuit = map_circuit(random_logic(20, SEARCH_NODES, seed=7))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)

    def run(compiled):
        with monkeypatch.context() as patch:
            if not compiled:  # the object-graph oracle
                patch.setenv("REPRO_COMPILED", "0")
            start = time.perf_counter()
            result = search_circuit(circuit, input_stats, objective="power",
                                    seed=3, max_rounds=1)
            return time.perf_counter() - start, result

    object_s, reference = run(False)
    compiled_s, batched = run(True)
    # byte-identical artifact modulo run timing and the cone counter
    assert dumps_artifact(strip_cone(strip_timing(batched.to_artifact()))) \
        == dumps_artifact(strip_cone(strip_timing(reference.to_artifact()))), \
        "batch pricing drifted from the per-trial path"
    assert batched.gates_repropagated < reference.gates_repropagated
    speedup = object_s / compiled_s
    print(f"\n{circuit.name}: {len(circuit)} gates, {reference.trials} "
          f"trials [greedy candidate pass]")
    print(f"  per-move WhatIf : {object_s:8.2f}s/pass")
    print(f"  batch priced    : {compiled_s:8.2f}s/pass")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "batch-pricing-pass",
        "circuit": circuit.name,
        "gates": len(circuit),
        "trials": reference.trials,
        "object_s": object_s,
        "compiled_s": compiled_s,
        "object_repropagated": reference.gates_repropagated,
        "compiled_repropagated": batched.gates_repropagated,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_SAMPLER_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_SAMPLER_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the speedup tests did not run")
    if not out_path:
        pytest.skip("set REPRO_SAMPLER_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "compiled_sampler",
            "required_speedup": REQUIRED_SPEEDUP,
            "nodes": NODES,
            "lanes": LANES,
            "steps": STEPS,
            "search_nodes": SEARCH_NODES,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
