"""Batched configuration pricing in the optimiser: same answers as the oracle.

The contract under test: :func:`repro.core.optimizer.optimize_circuit`
prices every (gate, configuration) candidate of a pass in one batched
kernel call (:func:`repro.compiled.power.price_configurations`), and
its result is **bit-identical** to the paper's one-gate-at-a-time
traversal over :func:`repro.core.reorder.evaluate_configurations` —
the reference loop below, which reads every load and propagates every
statistic at the moment it decides a gate.  Decisions (configuration
keys and full power reports), ``power_before``/``power_after`` (exact
``==``), ``gates_decided`` and ``passes_run`` must all match, for every
Table 2 template, formula, objective, pass count and statistics
source.  The search engine's batched reorder pricing
(``_BatchPricer``), which shares the pricing function, must keep
scoring exactly like its per-move ``WhatIf`` trials.
"""

import pytest

from repro.bench.generators import random_logic
from repro.bench.suite import get_case
from repro.circuit.netlist import Circuit
from repro.compiled.power import price_configurations
from repro.core.optimizer import OBJECTIVES, _choose, optimize_circuit
from repro.core.power_model import FORMULAS, GatePowerModel
from repro.core.reorder import evaluate_configurations
from repro.gates.library import TABLE2_GATES, default_library
from repro.incremental import StatsCache
from repro.incremental.search import _Search, enumerate_moves, make_objective
from repro.incremental.timing import TimingCache
from repro.sim.stimulus import ScenarioA, ScenarioB
from repro.stochastic.density import propagate_stats
from repro.synth.mapper import map_circuit
from repro.timing.sta import DEFAULT_PO_LOAD

LIB = default_library()
MODELS = {formula: GatePowerModel(formula=formula) for formula in FORMULAS}


def reference_optimize(circuit, input_stats, model, objective, stats,
                       passes, po_load=DEFAULT_PO_LOAD):
    """The pre-batching optimiser: one ``evaluate_configurations`` per gate,
    loads and model statistics read as the traversal reaches each gate."""
    work = circuit.copy()
    precomputed = (None if stats == "model"
                   else propagate_stats(circuit, input_stats, method=stats))
    topo = work.topo_gates()
    timing = None
    if passes > 1 and objective in ("delay-constrained", "fastest"):
        timing = TimingCache(work, tech=model.tech, po_load=po_load)
    decisions = {}
    decided = 0
    passes_run = 0
    pending = None
    power_before = None
    any_changed = False
    for _ in range(passes):
        passes_run += 1
        changed = set()
        first = pending is None
        if first:
            net_stats = (dict(precomputed) if precomputed is not None
                         else {n: input_stats[n] for n in circuit.inputs})
            before = after = 0.0
        for gate in topo:
            if not first and gate.name not in pending:
                continue
            pin_stats = {pin: net_stats[gate.pin_nets[pin]]
                         for pin in gate.template.pins}
            load = work.output_load(gate.output, model.tech, po_load)
            evaluations = evaluate_configurations(gate.template, pin_stats,
                                                  model, load)
            decided += 1
            configs = [e.config for e in evaluations]
            position = {config.key(): k for k, config in enumerate(configs)}
            entry_eval = evaluations[position[gate.effective_config().key()]]
            default = position[gate.template.default_config().key()]
            default_eval = evaluations[default]
            chosen = evaluations[_choose(
                objective, gate, configs, [e.power for e in evaluations],
                default, model, load)]
            if chosen is not entry_eval:
                changed.add(gate.name)
                work.set_config(gate.name, chosen.config)
            else:
                gate.config = chosen.config
            decisions[gate.name] = (chosen.config.key(), chosen.power,
                                    chosen.report, default_eval.power,
                                    len(evaluations))
            if first:
                before += entry_eval.power
                after += chosen.power
                if precomputed is None:
                    net_stats[gate.output] = model.output_stats(
                        gate.compiled(), pin_stats)
        if power_before is None:
            power_before = before
        if not changed:
            break
        any_changed = True
        pending = {pred.name for name in changed
                   for pred in work.fanin_drivers(name)
                   if pred.template.num_configurations() > 1}
        if timing is not None:
            for net in timing.refresh():
                driver = work.driver(net)
                if driver is not None and driver.template.num_configurations() > 1:
                    pending.add(driver.name)
        if not pending:
            break
    if passes > 1 and any_changed:
        after = 0.0
        for gate in topo:
            pin_stats = {pin: net_stats[gate.pin_nets[pin]]
                         for pin in gate.template.pins}
            after += model.gate_power(
                gate.compiled(), pin_stats,
                work.output_load(gate.output, model.tech, po_load)).total
    if timing is not None:
        timing.close()
    return {
        "decisions": [decisions[g.name] for g in topo],
        "power_before": power_before,
        "power_after": after,
        "gates_decided": decided,
        "passes_run": passes_run,
        "configs": [g.effective_config().key() for g in work.gates],
    }


def batched_summary(result):
    return {
        "decisions": [
            (d.chosen.config.key(), d.chosen.power, d.chosen.report,
             d.default_power, d.num_configurations)
            for d in result.decisions
        ],
        "power_before": result.power_before,
        "power_after": result.power_after,
        "gates_decided": result.gates_decided,
        "passes_run": result.passes_run,
        "configs": [g.effective_config().key() for g in result.circuit.gates],
    }


def template_circuit(name):
    """Two instances of one template: ``g1`` drives pin ``a`` of ``g2``,
    so ``g1``'s load moves with ``g2``'s ordering (what the cone-aware
    passes react to); ``g2`` enters non-default."""
    template = LIB[name]
    pins = template.pins
    circuit = Circuit(f"t_{name}", LIB)
    nets = [f"x{i}" for i in range(len(pins) + 1)]
    for net in nets:
        circuit.add_input(net)
    circuit.add_gate("g1", name, dict(zip(pins, nets)), "n1")
    wiring = dict(zip(pins, nets[1:]))
    wiring[pins[0]] = "n1"
    circuit.add_gate("g2", name, wiring, "n2",
                     config=template.configurations()[-1])
    circuit.add_output("n1")
    circuit.add_output("n2")
    return circuit


@pytest.mark.parametrize("name", sorted(TABLE2_GATES))
def test_every_template_matches_the_oracle(name):
    circuit = template_circuit(name)
    input_stats = ScenarioB(seed=5).input_stats(circuit.inputs)
    for formula, model in MODELS.items():
        for objective in OBJECTIVES:
            for passes in (1, 3):
                for stats in ("model", "local"):
                    expected = reference_optimize(circuit, input_stats, model,
                                                  objective, stats, passes)
                    got = optimize_circuit(circuit, input_stats, model=model,
                                           objective=objective, stats=stats,
                                           passes=passes)
                    assert batched_summary(got) == expected, (
                        formula, objective, passes, stats)


@pytest.mark.parametrize("case", ["c17", "rca4", "rnd_a"])
def test_quick_suite_best_and_worst_match_the_oracle(case):
    circuit = map_circuit(get_case(case).network())
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    model = MODELS["conditioned"]
    for objective in ("best", "worst"):
        expected = reference_optimize(circuit, input_stats, model, objective,
                                      "model", 1)
        got = optimize_circuit(circuit, input_stats, objective=objective)
        assert batched_summary(got) == expected, objective


def test_price_configurations_matches_gate_power():
    template = LIB["aoi221"]
    model = MODELS["conditioned"]
    stats = ScenarioA(seed=1).input_stats(template.pins)
    p_in = [[stats[pin].probability for pin in template.pins]] * 2
    d_in = [[stats[pin].density for pin in template.pins]] * 2
    loads = [0.0, 7.5e-15]
    prices = price_configurations(model, [template, template], p_in, d_in,
                                  loads)
    assert prices.classes == template.num_configurations()
    assert prices.candidates == 2 * template.num_configurations()
    for gate, load in enumerate(loads):
        oracle = evaluate_configurations(template, stats, model, load)
        assert [e.config for e in oracle] == list(prices.configs[gate])
        assert [e.power for e in oracle] == prices.totals[gate]
        for position, evaluation in enumerate(oracle):
            assert prices.report(gate, position) == evaluation.report


def test_batch_pricer_scores_match_whatif_trials(object_engine):
    circuit = map_circuit(random_logic(12, 60, seed=9))
    input_stats = ScenarioA(seed=2).input_stats(circuit.inputs)

    def search_state():
        cache = StatsCache(circuit.copy(), input_stats)
        timing = TimingCache(cache.circuit, tech=cache.model.tech,
                             po_load=cache.po_load, index=cache.index)
        return _Search(cache, timing, make_objective("power"), False, None,
                       None)

    batched = search_state()
    with object_engine():
        trials = search_state()
    assert batched._pricer is not None and trials._pricer is None
    priced = 0
    for gate in circuit.gates:
        moves = enumerate_moves(batched.circuit, gate.name)
        if not moves:
            continue
        assert batched.score_batch(moves) == trials.score_batch(
            enumerate_moves(trials.circuit, gate.name)), gate.name
        priced += len(moves)
    assert priced > 0
    assert batched.trials == trials.trials == priced


def test_pricing_span_and_counter_leave_results_unchanged():
    import io
    import json

    from repro.obs import trace
    from repro.obs.metrics import REGISTRY

    circuit = map_circuit(get_case("rca4").network())
    input_stats = ScenarioA(seed=1).input_stats(circuit.inputs)
    plain = optimize_circuit(circuit, input_stats, passes=3)
    priced = REGISTRY.counter("optimize.configs_priced")
    start = priced.value
    sink = io.StringIO()
    trace.enable(sink)
    try:
        traced = optimize_circuit(circuit, input_stats, passes=3)
    finally:
        trace.disable()
    assert batched_summary(traced) == batched_summary(plain)
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    ends = [r for r in records if r["ev"] == "E" and r["name"] == "optimize.price"]
    begins = [r for r in records if r["ev"] == "B" and r["name"] == "optimize.price"]
    # One call per pass plus the settled-load sweep after a change.
    assert len(ends) == len(begins) == traced.passes_run + 1
    assert begins[0]["attrs"] == {"gates": len(circuit)}
    assert ends[0]["attrs"]["candidates"] == sum(
        g.template.num_configurations() for g in circuit.gates)
    assert all(r["attrs"]["classes"] >= 1 for r in ends)
    assert priced.since(start) == sum(r["attrs"]["candidates"] for r in ends)
