"""The four workloads: generated inputs, the command each runs, checks.

Every workload writes its circuit as a BLIF file (``repro.bench.
generators`` and ``write_blif``) and turns the run's ``--seed`` into the
scenario seed handed to the CLI and, for ``eco-replay``, the seed of the
JSON edit script, so the program only ever sees generated inputs.  A
workload is a list of :class:`Job`, one ``repro`` command line per
stimulus; its checks read the files and output that command left
behind.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` the
    self-test."""

    optimize_nodes: int
    search_nodes: int
    eco_nodes: int
    eco_edits: int
    suite_cases: Optional[Tuple[str, ...]]
    """``None`` runs ``bench --subset quick``; names run ``--cases``."""
    optimize_stimuli: int
    search_stimuli: int
    """Stimuli (scenario seeds) per run, one command call each."""


FULL = Sizes(optimize_nodes=150, search_nodes=65, eco_nodes=100,
             eco_edits=400, suite_cases=None, optimize_stimuli=2,
             search_stimuli=3)
TINY = Sizes(optimize_nodes=12, search_nodes=8, eco_nodes=12, eco_edits=40,
             suite_cases=("c17", "fa1"), optimize_stimuli=2,
             search_stimuli=2)

#: Circuit structures are fixed draws of ``random_logic``; the run seed
#: drives the scenario seed of every command (the (P, D) of every
#: primary input) and the eco edit script.  Command cost follows
#: structure: across five random_logic(16, 60) seeds greedy search took
#: 7.9 to 17.1 s (632 to 927 trials), and random_logic(32, 150) mapped
#: to 265 to 341 gates, spreads no run length averages away, while five
#: stimuli on one structure stayed within 5%.
STRUCTURE_SEED = 1


def stimulus_seeds(seed: int, count: int) -> List[int]:
    """The scenario seeds of a run: ``seed`` itself for one stimulus,
    ``seed * count + i`` for ``count`` of them (distinct across runs).

    The power saving is a function of the stimulus, so the two workloads
    whose saving follows it report the mean over several.  Over ten
    seeds the mean of two stimuli spread 0.099 of its median on
    ``optimize-rnd`` and 0.212 on ``search-greedy`` (10.96% to 14.73%),
    so ``search-greedy`` runs three; more would not fit the benchmark's
    time."""
    if count == 1:
        return [seed]
    return [seed * count + index for index in range(count)]


@dataclass
class Job:
    """One ``repro`` command line and what its checks need."""

    argv: List[str]
    scenario_seed: int
    network: object
    """The input :class:`~repro.circuit.logic.LogicNetwork`, if any."""
    files: Dict[str, str] = field(default_factory=dict)
    blif: Optional[str] = None
    mapped: object = None
    """The mapped input circuit, for checks that need one."""


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _circuit_file(workdir: str, label: str, network) -> str:
    from repro.circuit.blif import write_blif

    path = os.path.join(workdir, f"{label}.blif")
    with open(path, "w") as handle:
        handle.write(write_blif(network))
    return path


def input_stats(circuit_inputs, scenario_seed: int):
    """The Scenario A statistics every workload's CLI call draws."""
    from repro.sim.stimulus import ScenarioA

    return ScenarioA(seed=scenario_seed).input_stats(circuit_inputs)


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _cycle(rng: random.Random, items: list):
    """Endless seeded permutations of ``items``: every item is drawn
    once per pass, so cost per pass does not depend on which were
    drawn."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def eco_script(circuit, seed: int, edits: int) -> List[dict]:
    """A seeded edit script: 90% ``reorder``, 5% ``input-stats``, 5%
    ``input-arrival``, in a seeded order.

    Gates and primary inputs are drawn in seeded permutations, so each
    is edited about equally often: an input-stats edit re-propagates
    its input's whole fanout, and drawing inputs freely would let the
    script's cost follow which inputs the seed happened to favour.
    Reorders pick one of the gate's configurations (or -1, the template
    default) uniformly; input edits draw new (P, D) in Scenario A's
    ranges, or a new arrival time.
    """
    rng = random.Random(seed)
    side = edits // 20
    ops = (["input-stats"] * side + ["input-arrival"] * side
           + ["reorder"] * (edits - 2 * side))
    rng.shuffle(ops)
    gates = _cycle(rng, circuit.gates)
    inputs = _cycle(rng, circuit.inputs)
    script = []
    for op in ops:
        if op == "reorder":
            gate = next(gates)
            count = len(gate.template.configurations())
            script.append({"op": "reorder", "gate": gate.name,
                           "config": rng.randrange(-1, count)})
        elif op == "input-stats":
            script.append({"op": "input-stats", "net": next(inputs),
                           "probability": round(rng.uniform(0.02, 0.98), 6),
                           "density": round(rng.uniform(1e4, 1e6), 3)})
        else:
            script.append({"op": "input-arrival", "net": next(inputs),
                           "arrival": round(rng.uniform(0.0, 2e-10), 15)})
    return script


def prepare_optimize(seed: int, sizes: Sizes, workdir: str) -> List[Job]:
    """No ``--save-blif``: the saved netlist drops the chosen orderings
    (see README.md, "Output checks"), so the optimised netlist is read
    from ``launch.py --result`` instead."""
    from repro.bench.generators import random_logic

    network = random_logic(32, sizes.optimize_nodes, seed=STRUCTURE_SEED,
                           name="opt")
    blif = _circuit_file(workdir, "opt", network)
    jobs = []
    for index, scenario in enumerate(stimulus_seeds(
            seed, sizes.optimize_stimuli)):
        result = os.path.join(workdir, f"opt.{index}.result.json")
        jobs.append(Job([
            "optimize", blif, "--objective", "best", "--stats", "model",
            "--scenario", "A", "--seed", str(scenario),
        ], scenario, network, {"result": result}, blif))
    return jobs


def prepare_search(seed: int, sizes: Sizes, workdir: str) -> List[Job]:
    from repro.bench.generators import random_logic
    from repro.synth.mapper import map_circuit

    network = random_logic(32, sizes.search_nodes, seed=STRUCTURE_SEED,
                           name="search")
    blif = _circuit_file(workdir, "search", network)
    mapped = map_circuit(network)
    jobs = []
    for index, scenario in enumerate(stimulus_seeds(
            seed, sizes.search_stimuli)):
        saved = os.path.join(workdir, f"search.{index}.out.blif")
        artifact = os.path.join(workdir, f"search.{index}.json")
        jobs.append(Job([
            "search", blif, "--strategy", "greedy", "--objective", "power",
            "--backend", "analytic", "--scenario", "A",
            "--seed", str(scenario), "--out", artifact, "--save-blif", saved,
        ], scenario, network, {"saved": saved, "artifact": artifact}, blif,
            mapped))
    return jobs


def prepare_eco(seed: int, sizes: Sizes, workdir: str) -> List[Job]:
    """The circuit only: the edit script names mapped gates, so the
    per-edit loop (``launch.py edits``) maps the circuit and writes the
    script before the command replays it."""
    from repro.bench.generators import random_logic

    network = random_logic(24, sizes.eco_nodes, seed=STRUCTURE_SEED,
                           name="eco")
    blif = _circuit_file(workdir, "eco", network)
    files = {name: os.path.join(workdir, f"eco.{name}") for name in
             ("script", "artifact", "replay", "edited")}
    return [Job([
        "eco", blif, files["script"], "--timing", "--scenario", "A",
        "--seed", str(seed), "--out", files["artifact"],
    ], seed, network, files, blif)]


def prepare_table3(seed: int, sizes: Sizes, workdir: str) -> List[Job]:
    artifact = os.path.join(workdir, "table3.json")
    cases = (["--subset", "quick"] if sizes.suite_cases is None
             else ["--cases", *sizes.suite_cases])
    return [Job([
        "bench", *cases, "--jobs", "2", "--seed", str(seed),
        "--out", artifact,
    ], seed, None, {"artifact": artifact})]


def suite_cases(sizes: Sizes) -> List[str]:
    """The cases ``table3-quick`` runs."""
    if sizes.suite_cases is not None:
        return list(sizes.suite_cases)
    from repro.bench.suite import benchmark_suite

    return [case.name for case in benchmark_suite("quick")]


# ----------------------------------------------------------------------
# Output parsing
# ----------------------------------------------------------------------
_SI = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "": 1.0}


def _si(text: str, unit: str) -> float:
    match = re.fullmatch(r"(-?[\d.]+)([fpnum]?)" + unit, text.strip())
    if match is None:
        raise ValueError(f"not an SI value in {unit}: {text!r}")
    return float(match.group(1)) * _SI[match.group(2)]


def parse_optimize(stdout: str) -> dict:
    """The printed power, saving and delay of one ``repro optimize``."""
    power = re.search(r"^model power\s*: (\S+) \(optimised\), "
                      r"(\S+) \(worst ordering\)", stdout, re.M)
    saving = re.search(r"^best vs worst\s*: (-?[\d.]+)% power reduction",
                       stdout, re.M)
    delay = re.search(r"^delay\s*: (\S+) -> (\S+) ", stdout, re.M)
    if not (power and saving and delay):
        raise ValueError("unexpected 'repro optimize' output")
    return {
        "power_text": power.group(1),
        "worst_text": power.group(2),
        "power_after": _si(power.group(1), "W"),
        "saving": float(saving.group(1)) / 100.0,
        "delay_ratio": _si(delay.group(2), "s") / _si(delay.group(1), "s"),
    }


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Quality figures (the non-timing end-to-end metrics) per job
# ----------------------------------------------------------------------
def quality(workload: str, job: Job, stdout: str) -> dict:
    """``power_after`` (W), ``saving`` and ``delay_ratio`` (fractions)."""
    if workload == "optimize-rnd":
        parsed = parse_optimize(stdout)
        return {key: parsed[key]
                for key in ("power_after", "saving", "delay_ratio")}
    artifact = load_json(job.files["artifact"])
    if workload == "search-greedy":
        final, base = artifact["final"], artifact["baseline"]
        return {"power_after": final["power"], "saving": final["reduction"],
                "delay_ratio": final["delay"] / base["delay"]}
    if workload == "eco-replay":
        rows = artifact["results"]
        gates = artifact["eco"]["gates"]
        cones = sum(row["cone"] for row in rows)
        return {"power_after": rows[-1]["power_after"],
                "saving": 1.0 - cones / (len(rows) * gates),
                "delay_ratio": rows[-1]["delay_after"]
                / rows[0]["delay_before"]}
    rows = artifact["results"]
    return {
        "power_after": sum(row["model_power_best"] for row in rows),
        "saving": sum(row["model_reduction"] for row in rows) / len(rows),
        "delay_ratio": 1.0 + sum(row["delay_increase"] for row in rows)
        / len(rows),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _mapped(text: str):
    from repro.circuit.blif import parse_mapped_blif
    from repro.gates.library import default_library

    return parse_mapped_blif(text, default_library())


def _equivalent(network, circuit, label: str) -> Check:
    """``circuit`` computes the input network's function."""
    from repro.sim.logicsim import check_equivalence

    ok = check_equivalence(network, circuit)
    return Check("equivalent", ok, "" if ok else f"{label} differs "
                 "from its input network")


def check_equivalent(network, netlist_path: str) -> Check:
    """The saved mapped netlist computes the input network's function."""
    with open(netlist_path) as handle:
        return _equivalent(network, _mapped(handle.read()), netlist_path)


def optimized_circuits(job: Job) -> Dict[str, tuple]:
    """The circuits the command's ``optimize_circuit`` calls returned
    (``launch.py --result``), rebuilt with their configurations, by
    objective: ``(circuit, power_after)``."""
    from repro.incremental import resolve_edit

    circuits = {}
    for record in load_json(job.files["result"]):
        circuit = _mapped(record["netlist"])
        for entry in record["configs"]:
            circuit.apply_edit(resolve_edit(circuit, entry))
        circuits.setdefault(record["objective"], (circuit, record["power"]))
    return circuits


def check_optimize_equivalent(job: Job) -> Check:
    """The optimised netlist computes the input network's function."""
    circuit, _ = optimized_circuits(job)["best"]
    return _equivalent(job.network, circuit, "the optimised netlist")


def check_optimize_repricing(job: Job, stdout: str) -> Check:
    """Re-pricing the optimised and the worst-ordering netlists with
    their configurations gives the powers the command printed, and the
    ``power_after`` its optimiser returned to 1e-9 relative."""
    from repro.analysis.report import format_si
    from repro.core.optimizer import circuit_power

    parsed = parse_optimize(stdout)
    circuits = optimized_circuits(job)
    problems = []
    for objective, printed in (("best", parsed["power_text"]),
                               ("worst", parsed["worst_text"])):
        circuit, returned = circuits[objective]
        stats = input_stats(circuit.inputs, job.scenario_seed)
        repriced = circuit_power(circuit, stats).total
        if format_si(repriced, "W") != printed:
            problems.append(f"{objective} re-prices to "
                            f"{format_si(repriced, 'W')}, command printed "
                            f"{printed}")
        if abs(repriced - returned) > 1e-9 * abs(returned):
            problems.append(f"{objective} re-prices to {repriced!r}, "
                            f"optimiser returned {returned!r}")
    return Check("optimised-power", not problems, "; ".join(problems))


def check_search_replay(job: Job, mapped) -> Check:
    """Replaying the artifact's moves on the mapped input re-prices to
    the artifact's final power (1e-9 relative)."""
    from repro.core.optimizer import circuit_power
    from repro.incremental import resolve_edit

    artifact = load_json(job.files["artifact"])
    circuit = mapped.copy()
    for move in artifact["moves"]:
        circuit.apply_edit(resolve_edit(circuit, move["edit"]))
    stats = input_stats(circuit.inputs, job.scenario_seed)
    repriced = circuit_power(circuit, stats).total
    final = artifact["final"]["power"]
    ok = abs(repriced - final) <= 1e-9 * abs(final)
    return Check("moves-replay", ok,
                 f"replayed moves price {repriced!r}, artifact says {final!r}")


def check_table3_rows(job: Job, cases: int) -> Check:
    rows = load_json(job.files["artifact"])["results"]
    bad = [f"{row['circuit']}/{row.get('scenario', '?')}: {row['status']}"
           for row in rows if row["status"] != "ok"]
    ok = len(rows) == 2 * cases and not bad
    return Check("rows-ok", ok, f"{len(rows)} rows for {cases} cases; "
                 f"not ok: {bad}")


# ----------------------------------------------------------------------
# The per-edit loop
# ----------------------------------------------------------------------
def replay_edits(circuit, stats, script) -> dict:
    """Apply ``script`` edit by edit through the public incremental API,
    timing each edit (resolve, apply, ``StatsCache.total_power``,
    ``TimingCache.delay``).  ``circuit`` is edited in place."""
    from time import perf_counter

    from repro.core.power_model import GatePowerModel
    from repro.incremental import (
        InputArrivalEdit,
        InputStatsEdit,
        StatsCache,
        TimingCache,
        resolve_edit,
    )
    from repro.timing.sta import DEFAULT_PO_LOAD

    model = GatePowerModel()
    cache = StatsCache(circuit, stats, backend="analytic", model=model,
                       po_load=DEFAULT_PO_LOAD)
    timing = TimingCache(circuit, tech=model.tech, po_load=DEFAULT_PO_LOAD,
                         index=cache.index)
    latency, power_s, delay_s, cones = [], [], [], []
    try:
        power = cache.total_power()
        delay = timing.delay()
        for entry in script:
            repropagated = cache.gates_repropagated
            start = perf_counter()
            edit = resolve_edit(circuit, entry)
            if isinstance(edit, InputStatsEdit):
                cache.set_input_stats(edit.net, edit.stats)
            elif isinstance(edit, InputArrivalEdit):
                timing.set_input_arrival(edit.net, edit.arrival)
            else:
                circuit.apply_edit(edit)
            applied = perf_counter()
            power = cache.total_power()
            priced = perf_counter()
            delay = timing.delay()
            done = perf_counter()
            latency.append(done - start)
            power_s.append(priced - applied)
            delay_s.append(done - priced)
            cones.append(cache.gates_repropagated - repropagated)
        retimed = timing.gates_retimed
    finally:
        timing.close()
        cache.close()
    return {"latency_s": latency, "power_s": power_s, "delay_s": delay_s,
            "cones": cones, "power": power, "delay": delay,
            "retimed": retimed}


def check_eco(job: Job) -> List[Check]:
    """The command applied every edit and reached the per-edit loop's
    final power; the loop's edited netlist keeps the input function."""
    script = load_json(job.files["script"])
    rows = load_json(job.files["artifact"])["results"]
    replay = load_json(job.files["replay"])
    final = rows[-1]["power_after"] if rows else None
    return [
        Check("edits-applied", len(rows) == len(script),
              f"{len(rows)} of {len(script)} edits reported"),
        Check("final-power", final == replay["power"],
              f"command reached {final!r}, per-edit loop reached "
              f"{replay['power']!r}"),
        check_equivalent(job.network, job.files["edited"]),
    ]


#: Each workload's jobs: one command line per stimulus.
WORKLOADS: Dict[str, Callable[[int, Sizes, str], List[Job]]] = {
    "optimize-rnd": prepare_optimize,
    "search-greedy": prepare_search,
    "eco-replay": prepare_eco,
    "table3-quick": prepare_table3,
}
