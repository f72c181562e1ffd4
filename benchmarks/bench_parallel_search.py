"""Acceptance benchmark: multi-process portfolio search scaling.

The claim under test (this PR's tentpole, parallel half): fanning the
annealing restart portfolio out over worker processes
(``search_circuit(restarts=R, jobs=N)`` / ``repro search --jobs N``)
scales — ``jobs=4`` beats ``jobs=1`` wall-clock by at least **2x** on
four restarts — while the merged result stays **byte-identical**: the
canonical JSON artifact (timing fields stripped) must not change with
the worker count.

The byte-stability half always runs; the wall-clock floor needs real
parallel hardware and is skipped below four CPUs (the weekly CI
runners have them).

Run with::

    pytest -m bench benchmarks/bench_parallel_search.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_PARALLEL_BENCH_OUT`` writes the canonical JSON artifact there
(``repro bench`` style).
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.generators import random_logic
from repro.bench.runner import (
    SCHEMA_VERSION,
    environment_meta,
    dumps_artifact,
    strip_timing,
    write_artifact,
)
from repro.incremental import search_circuit
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

NODES = 180
TRIALS = 1200
RESTARTS = 4
REQUIRED_SPEEDUP = 2.0
CPUS = os.cpu_count() or 1

RESULTS = []


@pytest.fixture(scope="module")
def setting():
    circuit = map_circuit(random_logic(20, NODES, seed=11))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    return circuit, input_stats


def _run(circuit, input_stats, jobs, trials):
    start = time.perf_counter()
    result = search_circuit(
        circuit, input_stats, strategy="anneal", objective="power",
        seed=0, restarts=RESTARTS, jobs=jobs, anneal_trials=trials,
    )
    return time.perf_counter() - start, result


def test_artifact_byte_stable_across_jobs(setting):
    """jobs=1 and jobs=4 must emit the identical canonical artifact."""
    circuit, input_stats = setting
    trials = max(50, TRIALS // 8)  # stability needs moves, not wall-clock
    _, serial = _run(circuit, input_stats, jobs=1, trials=trials)
    _, parallel = _run(circuit, input_stats, jobs=4, trials=trials)
    blob_serial = dumps_artifact(strip_timing(serial.to_artifact()))
    blob_parallel = dumps_artifact(strip_timing(parallel.to_artifact()))
    assert blob_serial == blob_parallel, \
        "portfolio artifact depends on the worker count"
    print(f"\n{circuit.name}: {len(circuit)} gates — jobs=1 and jobs=4 "
          f"artifacts byte-identical ({len(blob_serial)} bytes, "
          f"winner restart #{serial.restart_index})")
    RESULTS.append({
        "mode": "byte-stability",
        "circuit": circuit.name,
        "gates": len(circuit),
        "restarts": RESTARTS,
        "anneal_trials": trials,
        "artifact_bytes": len(blob_serial),
        "winner": serial.restart_index,
    })


@pytest.mark.skipif(
    CPUS < 4, reason=f"wall-clock floor needs >= 4 CPUs (have {CPUS})")
def test_parallel_portfolio_speedup(setting):
    circuit, input_stats = setting
    serial_s, serial = _run(circuit, input_stats, jobs=1, trials=TRIALS)
    parallel_s, parallel = _run(circuit, input_stats, jobs=4, trials=TRIALS)
    assert dumps_artifact(strip_timing(serial.to_artifact())) \
        == dumps_artifact(strip_timing(parallel.to_artifact()))

    speedup = serial_s / parallel_s
    print(f"\n{circuit.name}: {len(circuit)} gates, {RESTARTS} restarts x "
          f"{TRIALS} trials [portfolio annealing]")
    print(f"  jobs=1 : {serial_s:8.1f}s")
    print(f"  jobs=4 : {parallel_s:8.1f}s")
    print(f"  winner : restart #{serial.restart_index}, "
          f"{serial.reduction * 100:.1f}% power reduction "
          f"({len(serial.accepted)} moves)")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "portfolio-anneal",
        "circuit": circuit.name,
        "gates": len(circuit),
        "restarts": RESTARTS,
        "anneal_trials": TRIALS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "winner": serial.restart_index,
        "reduction": serial.reduction,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_PARALLEL_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_PARALLEL_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the portfolio tests did not run")
    if not out_path:
        pytest.skip("set REPRO_PARALLEL_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "parallel_search",
            "required_speedup": REQUIRED_SPEEDUP,
            "restarts": RESTARTS,
            "anneal_trials": TRIALS,
            "cpus": CPUS,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")
