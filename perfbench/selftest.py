"""Self-test of the benchmark at tiny input sizes.

Run from the repository root (it is not part of the tier-1 suite)::

    python3 -m pytest -q perfbench/selftest.py

It checks that every workload emits every named metric with its unit,
that one seed always generates byte-identical inputs, and that each
output check rejects a deliberately corrupted output.  One test, marked
as a strict expected failure, shows the known defect that keeps
``--save-blif`` out of the ``optimize-rnd`` command.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return str(path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = run.run_workload(workload, SEED, 0, trace, ROOT,
                              str(tmp_path / "work"), W.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    json.dumps(result)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    generated = []
    for name in ("a", "b"):
        workdir = _fresh(tmp_path / name)
        jobs = W.WORKLOADS[workload](SEED, W.TINY, workdir)
        inputs = {job.blif for job in jobs if job.blif}
        if workload == "eco-replay":  # the edit script is written here
            run._eco_edits(run.Bench(ROOT, workdir), jobs[0], W.TINY)
            inputs.add(jobs[0].files["script"])
        files = {}
        for path in sorted(inputs):
            with open(path, "rb") as handle:
                files[os.path.relpath(path, workdir)] = handle.read()
        argv = [[arg.replace(workdir, "WORK") for arg in job.argv]
                for job in jobs]
        generated.append((files, argv))
    assert generated[0] == generated[1]
    assert generated[0][0] or workload == "table3-quick"
    seeds = [argv[argv.index("--seed") + 1] for argv in generated[0][1]]
    assert len(set(seeds)) == len(seeds)


def _run_job(tmp_path, workload):
    """Run the first command of ``workload`` once; returns (job, proc)."""
    workdir = _fresh(tmp_path / "work")
    bench = run.Bench(ROOT, workdir)
    job = W.WORKLOADS[workload](SEED, W.TINY, workdir)[0]
    if workload == "eco-replay":
        run._eco_edits(bench, job, W.TINY)
    result = (["--result", job.files["result"]] if "result" in job.files
              else None)
    proc = bench.cli(job.argv, extra=result)
    assert proc.code == 0
    return job, proc


def _rewire_first_gate(path):
    """A copy of a mapped netlist whose first gate reads a different
    primary input on its first pin."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    inputs = next(line for line in lines if line.startswith(".inputs"))
    spare = inputs.split()[-1]
    for index, line in enumerate(lines):
        if line.startswith(".gate"):
            tokens = line.split()
            pin, net = tokens[2].split("=")
            replacement = spare if net != spare else inputs.split()[1]
            tokens[2] = f"{pin}={replacement}"
            lines[index] = " ".join(tokens)
            break
    copy = path + ".rewired"
    with open(copy, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return copy


def test_exit_status_check_rejects_a_failed_run(tmp_path):
    jobs = W.prepare_table3(SEED, W.TINY, str(tmp_path))
    calls = [run.Proc(0, 1.0, 1.0, 1.0, ""), run.Proc(1, 1.0, 1.0, 1.0, "")]
    checks = run._job_checks("table3-quick", jobs, calls, W.TINY)
    assert checks[0].name == "exit-status" and not checks[0].ok


def test_a_failing_command_is_counted_not_fatal(tmp_path, monkeypatch):
    """A command that exits non-zero and leaves no outputs still gives
    a result line, with its failed checks counted."""
    prepare = W.WORKLOADS["search-greedy"]

    def without_input(seed, sizes, workdir):
        jobs = prepare(seed, sizes, workdir)
        os.remove(jobs[0].blif)
        return jobs

    monkeypatch.setitem(W.WORKLOADS, "search-greedy", without_input)
    result = run.run_workload("search-greedy", SEED, 0, False, ROOT,
                              str(tmp_path / "work"), W.TINY)
    assert not result["correct"]
    # exit status, unreadable outputs of each stimulus, unreadable figures
    assert result["failed"] == result["attempted"] == 2 + W.TINY.search_stimuli
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["pass_share"]["value"] == 0.0


def _rewire_result(path):
    """A copy of an optimise result whose netlists are rewired
    (:func:`_rewire_first_gate`)."""
    records = W.load_json(path)
    for record in records:
        netlist = path + ".netlist"
        with open(netlist, "w") as handle:
            handle.write(record["netlist"])
        with open(_rewire_first_gate(netlist)) as handle:
            record["netlist"] = handle.read()
    copy = path + ".rewired"
    with open(copy, "w") as handle:
        json.dump(records, handle)
    return copy


def _reordered_result(path):
    """A copy of an optimise result in which the first gate with a
    choice of configurations has another one."""
    records = W.load_json(path)
    best = next(r for r in records if r["objective"] == "best")
    netlist = W._mapped(best["netlist"])
    for entry in best["configs"]:
        count = len(netlist.gate(entry["gate"]).template.configurations())
        if count > 1:
            entry["config"] = (max(entry["config"], 0) + 1) % count
            break
    copy = path + ".reordered"
    with open(copy, "w") as handle:
        json.dump(records, handle)
    return copy


def test_optimize_checks_reject_corrupted_outputs(tmp_path):
    job, proc = _run_job(tmp_path, "optimize-rnd")
    stdout = proc.stdout
    assert W.check_optimize_equivalent(job).ok
    assert W.check_optimize_repricing(job, stdout).ok
    result = job.files["result"]

    job.files["result"] = _rewire_result(result)
    assert not W.check_optimize_equivalent(job).ok
    job.files["result"] = _reordered_result(result)
    assert not W.check_optimize_repricing(job, stdout).ok
    job.files["result"] = result
    printed = W.parse_optimize(stdout)["power_text"]
    corrupted = stdout.replace(printed + " (optimised)",
                               "999.99mW (optimised)")
    assert not W.check_optimize_repricing(job, corrupted).ok


@pytest.mark.xfail(strict=True, reason="write_mapped_blif drops gate "
                   "configurations, so --save-blif writes the template "
                   "orderings, not the optimised ones")
def test_saved_netlist_keeps_the_optimised_orderings(tmp_path):
    """The known defect that keeps ``--save-blif`` out of the
    ``optimize-rnd`` command: re-pricing the netlist ``repro optimize
    --save-blif`` writes does not give the power it printed.  When this
    passes, the defect is fixed: put ``--save-blif`` back into the
    workload and check its file instead of ``launch.py --result``."""
    from repro.analysis.report import format_si
    from repro.core.optimizer import circuit_power

    job, proc = _run_job(tmp_path, "optimize-rnd")
    saved = os.path.join(str(tmp_path), "saved.blif")
    bench = run.Bench(ROOT, str(tmp_path))
    assert bench.cli(job.argv + ["--save-blif", saved]).code == 0
    with open(saved) as handle:
        circuit = W._mapped(handle.read())
    repriced = circuit_power(
        circuit, W.input_stats(circuit.inputs, job.scenario_seed)).total
    assert format_si(repriced, "W") == W.parse_optimize(
        proc.stdout)["power_text"]


def test_search_checks_reject_corrupted_outputs(tmp_path):
    job, _ = _run_job(tmp_path, "search-greedy")
    assert W.check_equivalent(job.network, job.files["saved"]).ok
    assert W.check_search_replay(job, job.mapped).ok
    rewired = _rewire_first_gate(job.files["saved"])
    assert not W.check_equivalent(job.network, rewired).ok
    artifact = W.load_json(job.files["artifact"])
    artifact["final"]["power"] *= 1.001
    with open(job.files["artifact"], "w") as handle:
        json.dump(artifact, handle)
    assert not W.check_search_replay(job, job.mapped).ok


def test_eco_checks_reject_corrupted_outputs(tmp_path):
    job, _ = _run_job(tmp_path, "eco-replay")
    assert all(check.ok for check in W.check_eco(job))
    artifact = W.load_json(job.files["artifact"])
    artifact["results"][-1]["power_after"] *= 1.001
    artifact["results"].pop(0)
    with open(job.files["artifact"], "w") as handle:
        json.dump(artifact, handle)
    job.files["edited"] = _rewire_first_gate(job.files["edited"])
    failed = {check.name for check in W.check_eco(job) if not check.ok}
    assert failed == {"edits-applied", "final-power", "equivalent"}


def test_table3_check_rejects_a_failed_row(tmp_path):
    job, _ = _run_job(tmp_path, "table3-quick")
    cases = len(W.TINY.suite_cases)
    assert W.check_table3_rows(job, cases).ok
    artifact = W.load_json(job.files["artifact"])
    artifact["results"][0] = {"circuit": "c17", "status": "error",
                              "error": "injected"}
    with open(job.files["artifact"], "w") as handle:
        json.dump(artifact, handle)
    assert not W.check_table3_rows(job, cases).ok


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "optimize-rnd", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
