"""E4 via the parallel runner: the Table-3 sweep as a JSON artifact.

Exercises the full ``repro.bench.runner`` path — fan the suite out over
worker processes, write the canonical JSON artifact, read it back — and
re-asserts the paper's shape claims from the artifact alone, proving
the JSON carries everything downstream analyses need.

Run with::

    pytest -m bench benchmarks/bench_runner_suite.py

(the ``bench`` marker is deselected by default so these sweeps never
slow tier-1 down).
"""

import pytest

pytestmark = pytest.mark.bench

from repro.analysis.report import format_percent, format_table
from repro.analysis.stats import mean
from repro.bench.runner import load_artifact, run_suite
from repro.bench.suite import benchmark_suite

SUBSET = "quick"
JOBS = 2


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / f"table3_{SUBSET}.json"
    run_suite(subset=SUBSET, scenarios=("A", "B"), jobs=JOBS, seed=0,
              out_path=str(path))
    # Everything below consumes the serialised artifact, not the
    # in-memory result — the JSON file is the interface under test.
    return load_artifact(str(path))


def _scenario_rows(artifact, scenario):
    return [r for r in artifact["results"] if r["scenario"] == scenario]


def test_artifact_covers_the_suite(artifact):
    expected = [case.name for case in benchmark_suite(SUBSET)]
    assert artifact["suite"]["cases"] == expected
    for scenario in ("A", "B"):
        assert [r["circuit"] for r in _scenario_rows(artifact, scenario)] == expected


def test_artifact_reproduces_table3_shape_claims(artifact):
    rows_a = _scenario_rows(artifact, "A")
    rows_b = _scenario_rows(artifact, "B")
    for scenario, rows in (("A", rows_a), ("B", rows_b)):
        table = [
            (r["circuit"], r["gates"], format_percent(r["model_reduction"]),
             format_percent(r["sim_reduction"]),
             format_percent(r["delay_increase"]), f"{r['elapsed_s']:.2f}s")
            for r in rows
        ]
        print()
        print(format_table(("Circuit", "G", "M%", "S%", "D%", "t"), table,
                           title=f"runner artifact - scenario {scenario} "
                                 f"({SUBSET}, jobs={JOBS})"))
    avg_sim_a = mean([r["sim_reduction"] for r in rows_a])
    avg_sim_b = mean([r["sim_reduction"] for r in rows_b])
    avg_delay = mean([r["delay_increase"] for r in rows_a + rows_b])
    # Paper §5: scenario A around 12 % simulated savings, scenario B
    # clearly below it, delay impact small (same bounds as E4).
    assert 0.04 <= avg_sim_a <= 0.25
    assert avg_sim_b < avg_sim_a
    assert abs(avg_delay) <= 0.15


def test_artifact_timings_present(artifact):
    assert artifact["elapsed_s"] > 0.0
    assert all(r["elapsed_s"] > 0.0 for r in artifact["results"])
    assert artifact["jobs"] == JOBS
