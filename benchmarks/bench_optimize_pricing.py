"""Acceptance benchmark: batched configuration pricing vs the per-config oracle.

The claim under test: the optimiser's one batched pricing call per pass
(:func:`repro.compiled.power.price_configurations`, one kernel
evaluation per (template, configuration) class) prices every
(gate, configuration) candidate of a generated circuit at least **10x
faster** than the per-gate oracle
(:func:`repro.core.reorder.evaluate_configurations`, one
``GatePowerModel.gate_power`` per configuration) — with every total
**bit-identical**, and ``optimize_circuit``'s ``power_after`` for the
best and worst objectives equal (``==``) to the fold of the oracle's
per-gate extremes.

Run with::

    pytest -m bench benchmarks/bench_optimize_pricing.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
Set ``REPRO_PRICING_BENCH_OUT`` to write the canonical JSON artifact
there, ``repro bench`` style.
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.generators import random_logic
from repro.bench.runner import SCHEMA_VERSION, environment_meta, \
    write_artifact
from repro.compiled.power import price_configurations
from repro.core.optimizer import optimize_circuit
from repro.core.power_model import GatePowerModel
from repro.core.reorder import evaluate_configurations
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit
from repro.timing.sta import DEFAULT_PO_LOAD

#: Random-logic node count before mapping (317 gates after it).
NODES = 150
#: Timed repetitions of each pricing route.
REPS = 3
REQUIRED_SPEEDUP = 10.0

RESULTS = []


@pytest.fixture(scope="module")
def setting():
    circuit = map_circuit(random_logic(32, NODES, seed=1))
    input_stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    model = GatePowerModel()
    # The model flow's net statistics, as the optimiser's pass 1 sees them.
    net_stats = optimize_circuit(circuit, input_stats, model=model).net_stats
    topo = circuit.topo_gates()
    loads = [circuit.output_load(g.output, model.tech, DEFAULT_PO_LOAD)
             for g in topo]
    pin_stats = [{pin: net_stats[g.pin_nets[pin]] for pin in g.template.pins}
                 for g in topo]
    return circuit, input_stats, model, topo, loads, pin_stats


def _timed(fn, reps):
    fn()  # warm: compile-once tables and kernel classes
    start = time.perf_counter()
    for _ in range(reps):
        result = fn()
    return (time.perf_counter() - start) / reps, result


def _oracle(model, topo, loads, pin_stats):
    return [
        [e.power for e in evaluate_configurations(g.template, stats, model,
                                                  load)]
        for g, stats, load in zip(topo, pin_stats, loads)
    ]


def _batched(model, topo, loads, pin_stats):
    return price_configurations(
        model,
        [g.template for g in topo],
        [[stats[pin].probability for pin in g.template.pins]
         for g, stats in zip(topo, pin_stats)],
        [[stats[pin].density for pin in g.template.pins]
         for g, stats in zip(topo, pin_stats)],
        loads,
    )


def test_batched_pricing_speedup(setting):
    circuit, input_stats, model, topo, loads, pin_stats = setting
    oracle_s, reference = _timed(
        lambda: _oracle(model, topo, loads, pin_stats), REPS)
    batched_s, prices = _timed(
        lambda: _batched(model, topo, loads, pin_stats), REPS)
    assert prices.totals == reference, "batched pricing drifted bit-wise"
    for objective, pick in (("best", min), ("worst", max)):
        expected = 0.0
        for row in reference:
            expected += pick(row)
        result = optimize_circuit(circuit, input_stats, model=model,
                                  objective=objective)
        assert result.power_after == expected, objective
    speedup = oracle_s / batched_s
    print(f"\n{circuit.name}: {len(topo)} gates, {prices.candidates} "
          f"candidates, {prices.classes} classes")
    print(f"  oracle  : {oracle_s * 1e3:8.1f}ms/pass")
    print(f"  batched : {batched_s * 1e3:8.1f}ms/pass")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "pass-pricing",
        "circuit": circuit.name,
        "gates": len(topo),
        "candidates": prices.candidates,
        "classes": prices.classes,
        "reps": REPS,
        "oracle_s": oracle_s,
        "batched_s": batched_s,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_PRICING_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_PRICING_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the speedup test did not run")
    if not out_path:
        pytest.skip("set REPRO_PRICING_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "optimize_pricing",
            "required_speedup": REQUIRED_SPEEDUP,
            "nodes": NODES,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
