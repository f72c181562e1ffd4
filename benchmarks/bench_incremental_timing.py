"""Acceptance benchmark: incremental timing vs full STA per edit.

The claim under test (this PR's tentpole): the
:class:`repro.incremental.timing.TimingCache` re-propagates arrival
times only through the timing-dirty cone (edited gate + fanout + fanin
drivers, pruned by early cut-off), making

* a per-edit delay refresh at least **10x faster** than a from-scratch
  :func:`repro.timing.sta.analyze_timing` run, and
* a cone-priced ``power-delay`` search at least **10x cheaper in gate
  arrival computations** than the pre-TimingCache behaviour (a full
  STA per candidate trial),

on the largest suite circuit — while staying bit-identical to batch
STA, with byte-stable canonical JSON artifacts.

Run with::

    pytest -m bench benchmarks/bench_incremental_timing.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_TIMING_BENCH_OUT`` writes the canonical JSON artifact there
(``repro bench`` style).
"""

import os
import time

import numpy as np
import pytest

pytestmark = pytest.mark.bench

from repro.bench.runner import (
    SCHEMA_VERSION,
    environment_meta,
    dumps_artifact,
    strip_timing,
    write_artifact,
)
from repro.bench.suite import benchmark_suite, get_case
from repro.incremental import TimingCache, search_circuit
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit
from repro.timing.sta import analyze_timing

EDITS = 60
REQUIRED_SPEEDUP = 10.0


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


def _random_single_gate_edits(circuit, count, seed=0):
    """(gate_name, config) reorder edits over random multi-config gates."""
    rng = np.random.default_rng(seed)
    gates = [g for g in circuit.gates if g.template.num_configurations() > 1]
    edits = []
    for _ in range(count):
        gate = gates[int(rng.integers(len(gates)))]
        configurations = gate.template.configurations()
        edits.append(
            (gate.name, configurations[int(rng.integers(len(configurations)))])
        )
    return edits


RESULTS = []


def test_per_edit_refresh_speedup(setting):
    name, circuit, _ = setting
    work = circuit.copy()
    edits = _random_single_gate_edits(work, EDITS, seed=3)
    incremental_s = 0.0
    full_s = 0.0
    retimed_before = 0
    with TimingCache(work) as tcache:
        tcache.delay()  # settle the initial sweep outside the timed loop
        for gate_name, config in edits:
            work.set_config(gate_name, config)
            start = time.perf_counter()
            delay = tcache.delay()
            incremental_s += time.perf_counter() - start
            start = time.perf_counter()
            reference = analyze_timing(work)
            full_s += time.perf_counter() - start
            assert tcache.arrivals() == reference.arrivals, \
                f"divergence after editing {gate_name}"
            assert delay == reference.delay
            assert tcache.critical_path() == reference.critical_path
        retimed = tcache.gates_retimed - retimed_before

    speedup = full_s / incremental_s
    print(f"\n{name}: {len(work)} gates, {len(edits)} single-gate edits")
    print(f"  full STA       : {full_s:8.3f}s")
    print(f"  dirty-cone     : {incremental_s:8.3f}s "
          f"(mean {retimed / len(edits):.1f} arrivals/edit vs "
          f"{len(work)} for full STA)")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "per-edit-refresh",
        "circuit": name,
        "gates": len(work),
        "edits": len(edits),
        "mean_retimed_per_edit": retimed / len(edits),
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_power_delay_search_trial_pricing(setting):
    name, circuit, input_stats = setting
    gates = len(circuit)

    start = time.perf_counter()
    result = search_circuit(circuit, input_stats, objective="power-delay",
                            seed=0)
    search_s = time.perf_counter() - start

    # The pre-TimingCache search paid one full STA — `gates` arrival
    # computations — per candidate trial; the live cache pays only the
    # timing-dirty cone (early cut-off included) per trial plus the
    # accepted-move bookkeeping.
    naive_arrivals = result.trials * gates
    speedup = naive_arrivals / result.gates_retimed

    # Wall-clock sanity sample: a few full STA runs put a seconds
    # figure next to the arrival counts.
    start = time.perf_counter()
    for _ in range(10):
        analyze_timing(result.circuit)
    sta_s_per_run = (time.perf_counter() - start) / 10

    print(f"\n{name}: {gates} gates [greedy search, power-delay objective]")
    print(f"  trials          : {result.trials} candidate moves, "
          f"{len(result.accepted)} accepted")
    print(f"  arrival computes: {result.gates_retimed} (dirty-cone) vs "
          f"{naive_arrivals} (full STA per trial)")
    print(f"  speedup         : {speedup:.1f}x "
          f"(required >= {REQUIRED_SPEEDUP:.0f}x)")
    print(f"  search wall     : {search_s:.1f}s (naive would spend "
          f"~{result.trials * sta_s_per_run:.1f}s on STA alone)")
    RESULTS.append({
        "mode": "power-delay-search",
        "circuit": name,
        "gates": gates,
        "trials": result.trials,
        "accepted": len(result.accepted),
        "gates_retimed": result.gates_retimed,
        "naive_arrivals": naive_arrivals,
        "speedup": speedup,
        "search_s": search_s,
    })
    assert speedup >= REQUIRED_SPEEDUP
    # the delay trace is real: the final delay matches a batch STA
    assert result.delay_after == analyze_timing(result.circuit).delay


def test_power_delay_artifact_byte_stable(setting):
    name, circuit, input_stats = setting
    one = search_circuit(circuit, input_stats, objective="power-delay", seed=4)
    two = search_circuit(circuit, input_stats, objective="power-delay", seed=4)
    blob_one = dumps_artifact(strip_timing(one.to_artifact()))
    blob_two = dumps_artifact(strip_timing(two.to_artifact()))
    assert blob_one == blob_two, "power-delay artifact drifted across runs"
    print(f"\n{name}: power-delay artifact byte-stable "
          f"({len(blob_one)} bytes, {len(one.accepted)} moves, "
          f"{one.gates_retimed} arrivals retimed)")


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_TIMING_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_TIMING_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the speedup tests did not run")
    if not out_path:
        pytest.skip("set REPRO_TIMING_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "incremental_timing",
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
