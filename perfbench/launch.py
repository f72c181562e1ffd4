"""Child-process side of the benchmark: one fresh interpreter per call.

Modes::

    launch.py cli   [--marks P] [--timers P] [--registry P] [--result P]
                    -- ARGV...
        run ``repro.cli.main(ARGV)`` exactly as ``python -m repro.cli``
        would, and exit with its status
    launch.py edits --marks P --blif FILE --seed N --edits N
                    --script P --replay P --edited P
        import the CLI, parse and map one circuit, draw its Scenario A
        input statistics (the set-up path of every command), then write
        a seeded edit script for the mapped circuit and replay it edit
        by edit (``workloads.replay_edits``), writing the timings and
        the edited netlist
    launch.py suite --seed N [--cases NAME...] [--timers P] [--registry P]
        the Table 3 sweep in this process (``run_suite(jobs=1)``)

``--marks`` appends one line, ``MONOTONIC CPU``, when the process (or a
worker it forks) first finishes drawing input statistics for a mapped
circuit: ``time.monotonic()`` (one clock for every process on the
machine) and the CPU seconds the command has used so far, the marking
process's own plus, in a forked worker, the CPU of the process that
started the command.  ``--timers`` wraps the public functions in
:data:`TIMED` with wall-clock accumulators and writes their totals at
exit.  ``--registry`` writes the process-global ``repro.obs.metrics``
snapshot at exit.  ``--result`` keeps every circuit
``optimize_circuit`` returns and writes them at exit, each as its
objective, its ``power_after``, its mapped netlist and one ``reorder``
edit-script entry per gate naming the chosen configuration: the
command's optimised netlist in a form that keeps the transistor
orderings (its ``--save-blif`` file does not).  The hooks add a handful
of Python calls per wrapped call and never change a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

#: (layer, module, class or None, attribute, how to count items).
#: The times are inclusive: ``core.optimize`` contains ``core.price``.
TIMED = (
    ("circuit.parse", "repro.circuit.blif", None, "load_blif", None),
    ("circuit.write", "repro.circuit.blif", None, "write_mapped_blif", None),
    ("circuit.write", "repro.bench.runner", None, "write_artifact", None),
    ("synth.map", "repro.synth.mapper", None, "map_circuit", "gates"),
    ("core.optimize", "repro.core.optimizer", None, "optimize_circuit", None),
    ("core.price", "repro.core.reorder", None, "evaluate_configurations",
     "configs"),
    ("core.output_stats", "repro.core.power_model", "GatePowerModel",
     "output_stats", None),
    ("timing.sta", "repro.timing.sta", None, "circuit_delay", None),
    ("incremental.search", "repro.incremental.search", None,
     "search_circuit", None),
    ("sim.run", "repro.sim.switchsim", "SwitchLevelSimulator", "run",
     "events"),
)

def _count(kind, result) -> int:
    if kind == "gates" or kind == "configs":
        return len(result)
    if kind == "events":
        return sum(result.net_transitions.values())
    return 0


def install_timers(totals: dict) -> None:
    """Wrap every :data:`TIMED` function; ``totals[layer]`` accumulates
    ``{"calls", "seconds", "items"}``.

    A module imported later binds the wrapper; one already imported
    that bound the original by name is rebound here."""
    for layer, module_name, class_name, attr, kind in TIMED:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        entry = totals.setdefault(layer, {"calls": 0, "seconds": 0.0,
                                          "items": 0})

        def timed(*args, _original=original, _entry=entry, _kind=kind,
                  **kwargs):
            start = time.perf_counter()
            result = _original(*args, **kwargs)
            _entry["seconds"] += time.perf_counter() - start
            _entry["calls"] += 1
            if _kind is not None:
                _entry["items"] += _count(_kind, result)
            return result

        setattr(owner, attr, timed)
        if class_name is None:
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, timed)


def _process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def install_marks(path: str) -> None:
    """Record when, and after how much CPU, each process first returns
    input statistics."""
    from repro.sim.stimulus import ScenarioA, ScenarioB

    root = os.getpid()
    marked = set()
    for scenario in (ScenarioA, ScenarioB):
        original = scenario.input_stats

        def input_stats(self, input_names, _original=original):
            result = _original(self, input_names)
            pid = os.getpid()
            if pid not in marked:
                marked.add(pid)
                cpu = time.process_time()
                if pid != root:
                    try:
                        cpu += _process_cpu_s(root)
                    except OSError:
                        pass
                with open(path, "a") as handle:
                    handle.write(f"{time.monotonic()!r} {cpu!r}\n")
            return result

        scenario.input_stats = input_stats


def install_results(results: list) -> None:
    """Keep ``(objective, OptimizeResult)`` of every
    ``optimize_circuit`` call."""
    from repro.core import optimizer

    original = optimizer.optimize_circuit

    def optimize_circuit(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append((kwargs.get("objective", "best"), result))
        return result

    optimizer.optimize_circuit = optimize_circuit


def _optimized(results: list) -> list:
    """:func:`install_results`' records as JSON: the configuration of
    each gate as its index in ``template.configurations()`` (-1 for the
    template default), as a ``reorder`` edit."""
    from repro.circuit.blif import write_mapped_blif

    orderings: dict = {}
    records = []
    for objective, result in results:
        circuit = result.circuit
        configs = []
        for gate in circuit.gates:
            name = gate.template.name
            if name not in orderings:
                orderings[name] = gate.template.configurations()
            index = (-1 if gate.config is None
                     else orderings[name].index(gate.config))
            configs.append({"op": "reorder", "gate": gate.name,
                            "config": index})
        records.append({"objective": objective,
                        "power": result.power_after,
                        "netlist": write_mapped_blif(circuit),
                        "configs": configs})
    return records


def _dump(path, payload) -> None:
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True)


def _registry_snapshot() -> dict:
    from repro.obs.metrics import REGISTRY

    return REGISTRY.snapshot()


def _edits(args) -> int:
    import repro.cli  # noqa: F401  (the CLI's own import cost)
    from repro.circuit.blif import load_blif, write_mapped_blif
    from repro.sim.stimulus import ScenarioA
    from repro.synth.mapper import map_circuit

    import workloads

    install_marks(args.marks)
    circuit = map_circuit(load_blif(args.blif))
    stats = ScenarioA(seed=args.seed).input_stats(circuit.inputs)
    script = workloads.eco_script(circuit, args.seed, args.edits)
    _dump(args.script, script)
    _dump(args.replay, workloads.replay_edits(circuit, stats, script))
    with open(args.edited, "w") as handle:
        handle.write(write_mapped_blif(circuit))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--marks")
    cli.add_argument("--timers")
    cli.add_argument("--registry")
    cli.add_argument("--result")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    edits = sub.add_parser("edits")
    for name in ("--marks", "--blif", "--script", "--replay", "--edited"):
        edits.add_argument(name, required=True)
    edits.add_argument("--seed", type=int, required=True)
    edits.add_argument("--edits", type=int, required=True)
    suite = sub.add_parser("suite")
    suite.add_argument("--seed", type=int, required=True)
    suite.add_argument("--cases", nargs="+")
    suite.add_argument("--timers")
    suite.add_argument("--registry")
    args = parser.parse_args(argv)

    if args.mode == "edits":
        return _edits(args)
    totals: dict = {}
    results: list = []
    if args.timers:
        install_timers(totals)
    if getattr(args, "result", None):
        install_results(results)
    if getattr(args, "marks", None):
        install_marks(args.marks)
    try:
        if args.mode == "cli":
            from repro.cli import main as cli_main

            cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            return cli_main(cli_argv)
        from repro.bench.runner import run_suite

        run_suite(subset=None if args.cases else "quick", cases=args.cases,
                  jobs=1, seed=args.seed)
        return 0
    finally:
        _dump(args.timers, totals)
        _dump(args.registry, _registry_snapshot())
        if getattr(args, "result", None):
            _dump(args.result, _optimized(results))


if __name__ == "__main__":
    sys.exit(main())
