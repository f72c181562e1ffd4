"""Acceptance benchmark: checkpointing costs under 5% of search wall time.

The claim under test (see ``src/repro/robust/README.md``): running
``search_circuit`` with ``--checkpoint`` at the default cadence
(:data:`repro.robust.checkpoint.DEFAULT_CHECKPOINT_EVERY` accepted
moves between snapshots) adds **less than 5%** to the wall time of the
``bench_eco_search.py`` workload — the largest suite circuit under the
default greedy search — while leaving the canonical artifact
byte-identical.

Methodology (robust to machine noise, same approach as
``bench_obs_overhead.py``): instead of A/B-ing two whole runs, this
measures the two factors of the overhead directly and multiplies them:

* the per-snapshot cost (payload build + canonical JSON + CRC + atomic
  write to a tmpfs-backed temp dir), timed over repeated saves of the
  run's own final checkpoint payload;
* the number of snapshots the workload actually writes at the default
  cadence, counted by running the checkpointed search itself.

Run with::

    pytest -m bench benchmarks/bench_checkpoint_overhead.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
``REPRO_CKPT_BENCH_OUT`` writes the canonical JSON artifact there
(``repro bench`` style).
"""

import os
import tempfile
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.runner import SCHEMA_VERSION, dumps_artifact, \
    environment_meta, strip_timing, write_artifact
from repro.bench.suite import benchmark_suite, get_case
from repro.incremental import search_circuit
from repro.robust import DEFAULT_CHECKPOINT_EVERY, load_checkpoint, \
    save_checkpoint
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

#: The robustness contract: default-cadence checkpointing must cost
#: less than this fraction of the uncheckpointed search's wall time.
MAX_OVERHEAD = 0.05

SAVE_LOOPS = 50

RESULTS = []


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


def test_checkpoint_overhead_under_five_percent(tmp_path):
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    gates = len(circuit)
    ck_path = str(tmp_path / "ck.json")

    # Warm caches, then time the uncheckpointed run — the denominator.
    search_circuit(circuit, input_stats, seed=0)
    start = time.perf_counter()
    plain = search_circuit(circuit, input_stats, seed=0)
    search_s = time.perf_counter() - start

    # The checkpointed run: counts snapshots at the default cadence and
    # proves byte-identity along the way.
    start = time.perf_counter()
    checkpointed = search_circuit(circuit, input_stats, seed=0,
                                  checkpoint_path=ck_path)
    checkpointed_s = time.perf_counter() - start
    assert dumps_artifact(strip_timing(checkpointed.to_artifact())) == \
        dumps_artifact(strip_timing(plain.to_artifact()))

    # Per-snapshot cost: repeatedly save the final (largest) payload.
    payload = load_checkpoint(ck_path)
    snapshots = max(1, len(plain.accepted) // DEFAULT_CHECKPOINT_EVERY)
    with tempfile.TemporaryDirectory() as save_dir:
        target = os.path.join(save_dir, "save.json")
        start = time.perf_counter()
        for _ in range(SAVE_LOOPS):
            save_checkpoint(target, payload)
        save_s = (time.perf_counter() - start) / SAVE_LOOPS

    overhead_s = snapshots * save_s
    fraction = overhead_s / search_s

    print(f"\n{name}: {gates} gates [checkpoint overhead]")
    print(f"  search wall-clock : {search_s:.2f}s plain, "
          f"{checkpointed_s:.2f}s checkpointed "
          f"({snapshots} snapshot(s) at the default cadence)")
    print(f"  snapshot cost     : {save_s * 1e3:.2f} ms/save "
          f"({SAVE_LOOPS} loops)")
    print(f"  checkpoint cost   : {overhead_s * 1e3:.2f} ms upper bound = "
          f"{fraction * 100:.3f}% of the search "
          f"(required < {MAX_OVERHEAD * 100:.0f}%)")

    RESULTS.append({
        "circuit": name,
        "gates": gates,
        "accepted": len(plain.accepted),
        "snapshots": snapshots,
        "save_ms": save_s * 1e3,
        "overhead_s": overhead_s,
        "search_s": search_s,
        "checkpointed_s": checkpointed_s,
        "overhead_fraction": fraction,
    })

    assert fraction < MAX_OVERHEAD


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_CKPT_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_CKPT_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the overhead test did not run")
    if not out_path:
        pytest.skip("set REPRO_CKPT_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "suite": {"benchmark": "checkpoint_overhead"},
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"wrote {out_path}")
