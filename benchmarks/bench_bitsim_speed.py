"""Acceptance benchmark: bit-parallel sampling vs the event-driven
simulator for 10k-vector density estimation on the largest suite circuit.

The claim under test (this PR's tentpole): packing 1024 sample lanes per
Python big int makes Monte-Carlo (P, D) estimation at least 10x faster
than driving the zero-delay :class:`SwitchLevelSimulator` with the same
number of vectors — in practice the gap is two orders of magnitude.

Run with::

    pytest -m bench benchmarks/bench_bitsim_speed.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
"""

import time

import pytest

from repro.bench.suite import benchmark_suite, get_case
from repro.sim.bitsim import BitParallelSimulator
from repro.sim.stimulus import ScenarioB
from repro.sim.switchsim import SwitchLevelSimulator
from repro.synth.mapper import map_circuit

VECTORS = 10000
LANES = 1000
REQUIRED_SPEEDUP = 10.0


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


@pytest.mark.bench
def test_bitsim_speedup_on_largest_circuit():
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    generator = ScenarioB(seed=0)
    input_stats = generator.input_stats(circuit.inputs)

    # Event-driven reference: settle the circuit at VECTORS clock edges.
    stimulus = generator.generate(circuit.inputs, cycles=VECTORS)
    start = time.perf_counter()
    settled = SwitchLevelSimulator(circuit, delay_mode="zero").run(stimulus)
    switchsim_s = time.perf_counter() - start

    # Bit-parallel: the same number of sampled vectors, LANES at a time.
    steps = max(2, VECTORS // LANES)
    start = time.perf_counter()
    simulator = BitParallelSimulator(circuit, lanes=LANES)
    report = simulator.run(input_stats, steps=steps, seed=0)
    bitsim_s = time.perf_counter() - start

    speedup = switchsim_s / bitsim_s
    print(f"\n{name}: {len(circuit)} gates, {VECTORS} vectors")
    print(f"  switch-level (zero delay): {switchsim_s:8.3f}s")
    print(f"  bit-parallel ({LANES}x{steps}):  {bitsim_s:8.3f}s")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    assert speedup >= REQUIRED_SPEEDUP

    # Both engines estimate the same settled activity: compare total
    # toggle mass (per-net Monte Carlo noise cancels in the sum).
    switch_total = sum(settled.net_transitions.values()) / VECTORS
    bit_total = sum(report.toggles.values()) / (LANES * (steps - 1))
    assert bit_total == pytest.approx(switch_total, rel=0.10)
