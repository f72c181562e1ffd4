"""The paper's circuit optimisation algorithm (§4, Figure 3).

One topological traversal of the mapped netlist.  For each gate it
gathers the (probability, density) statistics of its fanins
(OBTAIN_PROB_AND_DENS), exhaustively evaluates all transistor
reorderings under the extended power model and keeps the best
(FIND_BEST_REORDERING), then computes the output statistics with
Najm's transition density (CALCULATE_DENS) and moves on
(UPDATE_CIRCUIT_INFORMATION).

Because a gate's output function — hence its output (P, D) — does not
depend on the chosen ordering, the greedy per-gate choice is globally
optimal *with respect to the model* in a single pass (the paper's
monotonic-characteristic argument, §4.2).

The same property lets each pass do its pricing up front: the net
statistics are known before any decision, and every gate's load is
read from the circuit as the pass starts (its sinks come later in
topological order, so no earlier decision of the pass can move it).
Every (gate, configuration) candidate of a pass is therefore priced
in **one batched call**
(:func:`repro.compiled.power.price_configurations`, one kernel
evaluation per (template, configuration) class), and the per-gate
choices then run in topological order on the priced totals.
:func:`repro.core.reorder.evaluate_configurations` — one
``gate_power`` per configuration — is the reference oracle only;
``tests/test_optimizer_batched.py`` holds the two bit-identical.

Three objectives:

``"best"``      minimise each gate's modelled power (the paper's optimiser);
``"worst"``     maximise it (the paper's pessimal reference point — Table 3
                reports best-versus-worst savings);
``"delay-constrained"``  minimise power among the configurations whose
                per-pin delays do not exceed the as-mapped configuration's
                (the paper's future-work direction (b): savings with no
                delay increase).
``"fastest"``   minimise each gate's worst pin-to-output delay — the
                *prior-art baseline* the paper improves on (Carlson &
                Chen, DAC'93, reordered for performance with "no power
                consumption reductions reported").  Deliberately
                power-blind: delay ties (frequent — permutations share
                the worst-case delay) resolve by configuration key, so
                any power effect is incidental, as in the prior art.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..circuit.netlist import Circuit, GateInstance
from ..gates.capacitance import TechParams
from ..gates.library import GateConfig
from ..obs import trace as _trace
from ..obs.metrics import REGISTRY as _METRICS
from ..stochastic.signal import SignalStats
from ..timing.elmore import gate_pin_delay, gate_worst_delay
from ..timing.sta import DEFAULT_PO_LOAD
from .power_model import GatePowerModel, GatePowerReport
from .reorder import ConfigEvaluation

__all__ = [
    "OBJECTIVES",
    "STATS_SOURCES",
    "GateDecision",
    "OptimizeResult",
    "optimize_circuit",
    "circuit_power",
    "CircuitPowerReport",
]

OBJECTIVES = ("best", "worst", "delay-constrained", "fastest")

#: Sources of the per-net (P, D) statistics driving the optimisation.
#: ``"model"`` is the paper's flow (incremental propagation through the
#: power model during the traversal); the others precompute a full map
#: with :func:`repro.stochastic.density.propagate_stats`.
STATS_SOURCES = ("model", "local", "exact", "sampled")

_EPS = 1e-30

#: Candidate configurations priced by the optimiser's batched calls.
_CONFIGS_PRICED = _METRICS.counter("optimize.configs_priced")


@dataclass(frozen=True)
class GateDecision:
    """Outcome of optimising one gate."""

    gate_name: str
    template_name: str
    num_configurations: int
    chosen: ConfigEvaluation
    default_power: float
    """Modelled power of the as-mapped (default) configuration."""

    @property
    def saving_vs_default(self) -> float:
        if self.default_power <= _EPS:
            return 0.0
        return 1.0 - self.chosen.power / self.default_power


@dataclass
class OptimizeResult:
    """A reordered circuit plus the bookkeeping of how it was obtained."""

    circuit: Circuit
    net_stats: Dict[str, SignalStats]
    decisions: List[GateDecision]
    power_before: float
    """Total modelled power with the input circuit's configurations."""

    power_after: float
    """Total modelled power with the chosen configurations."""

    passes_run: int = 1
    """Traversals actually executed (< the requested ``passes`` when the
    configuration assignment reached a fixed point early)."""

    gates_decided: int = 0
    """Per-gate decisions evaluated across all passes.  Pass 1 decides
    every gate; later (cone-aware) passes re-decide only the worklist,
    so with ``passes > 1`` this stays far below ``passes * len(circuit)``."""

    gates_retimed: int = 0
    """Gate arrival recomputations performed by the incremental timing
    worklist (delay-aware objectives with ``passes > 1`` only; 0 when
    no :class:`~repro.incremental.timing.TimingCache` was attached)."""

    @property
    def reduction(self) -> float:
        """Fractional power reduction relative to the input circuit."""
        if self.power_before <= _EPS:
            return 0.0
        return 1.0 - self.power_after / self.power_before


@dataclass(frozen=True)
class CircuitPowerReport:
    """Total and per-gate modelled power of a circuit as configured."""

    total: float
    by_gate: Dict[str, GatePowerReport]
    net_stats: Dict[str, SignalStats]

    @property
    def internal_total(self) -> float:
        return sum(r.internal_power for r in self.by_gate.values())

    @property
    def output_total(self) -> float:
        return sum(r.output_power for r in self.by_gate.values())


def _pin_stats(gate: GateInstance,
               net_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
    return {pin: net_stats[gate.pin_nets[pin]] for pin in gate.template.pins}


def optimize_circuit(
    circuit: Circuit,
    input_stats: Mapping[str, SignalStats],
    model: Optional[GatePowerModel] = None,
    objective: str = "best",
    po_load: float = DEFAULT_PO_LOAD,
    stats: str = "model",
    stats_kwargs: Optional[Mapping] = None,
    passes: int = 1,
) -> OptimizeResult:
    """Run the Figure 3 algorithm and return a reordered copy of ``circuit``.

    ``stats`` selects where the per-net (P, D) statistics come from:
    ``"model"`` (default) propagates them incrementally through the
    power model exactly as the paper's traversal does, while
    ``"local"``, ``"exact"`` and ``"sampled"`` precompute the full map
    with :func:`repro.stochastic.density.propagate_stats` (the sampled
    source runs the bit-parallel Monte Carlo engine; ``stats_kwargs``
    forwards its ``lanes``/``steps``/``dt``/``seed`` options).

    ``passes`` repeats the traversal up to that many times, stopping
    early at a fixed point.  The paper's single pass is per-gate
    optimal *under the model*, but a gate's external load depends on
    its sinks' pin capacitances — which the same pass may still change
    after the gate was decided.  Later passes are **cone-aware**: a
    gate's decision inputs are its fanin statistics (invariant across
    passes — reordering never changes a net's (P, D), and the
    non-model sources are precomputed once) and its external load, so
    instead of re-traversing the whole circuit each pass, later passes
    re-decide exactly the worklist of gates whose settled sink loads
    the previous pass actually changed: the fanin drivers of every
    re-configured gate.  This reaches the same fixed point as full
    re-traversal (a gate with unchanged decision inputs re-decides
    identically) in cone-sized work per pass
    (``OptimizeResult.gates_decided`` counts the total).

    For the delay-aware objectives (``"delay-constrained"`` and
    ``"fastest"``) the worklist additionally consumes **timing-dirty**
    gates: a :class:`~repro.incremental.timing.TimingCache` rides along
    on the working circuit, and every gate whose output arrival a pass
    actually moved (cone-sized re-propagation with early cut-off, not
    a full STA per pass) is re-verified next pass.  Under the model
    those re-decides are idempotent — a decision reads fanin statistics
    and load, both already covered by the load worklist — so this
    widens the audited set without changing the fixed point;
    ``OptimizeResult.gates_retimed`` counts the extra work.  The
    reported ``power_before`` always refers to the input circuit and
    ``power_after`` to the settled configuration under its settled
    loads.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; choose from {OBJECTIVES}")
    if stats not in STATS_SOURCES:
        raise ValueError(f"unknown stats source {stats!r}; choose from {STATS_SOURCES}")
    if stats_kwargs and stats == "model":
        # Silently dropping these would mislead a caller who configured
        # a Monte-Carlo run but forgot stats="sampled".
        raise TypeError(
            f"stats_kwargs {sorted(stats_kwargs)} need a non-default stats source"
        )
    if passes < 1:
        raise ValueError("passes must be at least 1")
    model = model if model is not None else GatePowerModel()
    missing = [n for n in circuit.inputs if n not in input_stats]
    if missing:
        raise KeyError(f"missing input statistics for {missing}")

    result_circuit = circuit.copy()
    precomputed: Optional[Dict[str, SignalStats]] = None
    if stats != "model":
        from ..stochastic.density import propagate_stats

        precomputed = propagate_stats(
            circuit, input_stats, method=stats, **dict(stats_kwargs or {})
        )

    power_before: Optional[float] = None
    power_after = 0.0
    net_stats: Dict[str, SignalStats] = {}
    passes_run = 0
    # The process-wide decision counter (repro.obs.metrics); the result
    # field is the delta over this run, so the artifact number and a
    # metrics snapshot always agree.
    _decided = _METRICS.counter("optimize.gates_decided")
    decided_start = _decided.value
    any_changed = False
    topo = result_circuit.topo_gates()
    decisions_by_gate: Dict[str, GateDecision] = {}
    #: Gates to re-decide next pass; ``None`` = full traversal (pass 1).
    pending: Optional[set] = None

    timing = None
    if passes > 1 and objective in ("delay-constrained", "fastest"):
        # Delay-aware objectives: watch the working circuit with an
        # incremental timing cache so later passes can also consume
        # timing-dirty gates (imported lazily — repro.incremental
        # imports this module).
        from ..incremental.timing import TimingCache

        timing = TimingCache(result_circuit, tech=model.tech, po_load=po_load)

    for _ in range(passes):
        passes_run += 1
        changed_gates: set = set()
        first = pending is None
        if first:
            # Pass 1 — the paper's full traversal.  Output statistics
            # do not depend on the configuration (§4.2), so the "model"
            # flow's propagation runs ahead of the decisions.
            net_stats = (
                dict(precomputed) if precomputed is not None
                else _model_stats(circuit, topo, input_stats, model)
            )
            todo = topo
            pass_power_before = 0.0
            power_after = 0.0
        else:
            # Cone-aware pass: statistics are pass-invariant, so only
            # the worklist — gates whose external load the previous
            # pass changed — can decide differently.
            todo = [gate for gate in topo if gate.name in pending]
        # Every load is read before any decision of this pass: a gate's
        # sinks come later in topological order, so these are exactly
        # the loads a one-gate-at-a-time traversal would see.
        prices, loads = _price(todo, net_stats, result_circuit, model,
                               po_load)
        for index, gate in enumerate(todo):
            configs = prices.configs[index]
            totals = prices.totals[index]
            _decided.inc()
            position = {config.key(): k for k, config in enumerate(configs)}
            entry = position[gate.effective_config().key()]
            default = position[gate.template.default_config().key()]
            k = _choose(objective, gate, configs, totals, default, model,
                        loads[index])
            # The only full report this gate needs, read off the
            # kernel's node columns.
            chosen = ConfigEvaluation(configs[k], totals[k],
                                      prices.report(index, k))
            if k != entry:
                changed_gates.add(gate.name)
                # Through the edit API so an attached TimingCache
                # hears about it; a plain assignment would not.
                result_circuit.set_config(gate.name, chosen.config)
            else:
                gate.config = chosen.config
            decisions_by_gate[gate.name] = GateDecision(
                gate.name, gate.template.name, len(configs),
                chosen, totals[default]
            )
            if first:
                pass_power_before += totals[entry]
                power_after += totals[k]
        if power_before is None:
            power_before = pass_power_before

        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant("optimize.pass", number=passes_run,
                           decided=_decided.since(decided_start),
                           changed=len(changed_gates))
        if not changed_gates:
            break
        any_changed = True
        # The next worklist: a re-configured gate changes only its own
        # pin capacitances — the load its fanin drivers see.
        pending = set()
        for name in changed_gates:
            for pred in result_circuit.fanin_drivers(name):
                if pred.template.num_configurations() > 1:
                    pending.add(pred.name)
        if timing is not None:
            # Timing-dirty consumption (delay-aware objectives): every
            # gate whose output arrival this pass actually moved is
            # re-verified next pass.  refresh() returns exactly those
            # nets — cone-sized work, pruned by early cut-off.
            for net in timing.refresh():
                retimed_gate = result_circuit.driver(net)
                if (retimed_gate is not None
                        and retimed_gate.template.num_configurations() > 1):
                    pending.add(retimed_gate.name)
        if not pending:
            break

    if passes > 1 and any_changed:
        # Settled-load accounting: per-gate decision powers were priced
        # against loads that later decisions may have changed; one
        # cheap sweep (no enumeration) reprices the final configuration
        # consistently.  Matches a converged full pass bit-for-bit.
        settled, _ = _price(topo, net_stats, result_circuit, model,
                            po_load, current=True)
        power_after = 0.0
        for row in settled.totals:
            power_after += row[0]

    gates_retimed = 0
    if timing is not None:
        timing.refresh()  # settle any dirt the final pass left behind
        gates_retimed = timing.gates_retimed
        timing.close()

    decisions = [decisions_by_gate[g.name] for g in topo]
    return OptimizeResult(result_circuit, net_stats, decisions,
                          power_before, power_after, passes_run,
                          _decided.since(decided_start), gates_retimed)


def _model_stats(
    circuit: Circuit,
    topo: List[GateInstance],
    input_stats: Mapping[str, SignalStats],
    model: GatePowerModel,
) -> Dict[str, SignalStats]:
    """Net statistics of the paper's flow: ``output_stats`` in topological order."""
    net_stats = {n: input_stats[n] for n in circuit.inputs}
    for gate in topo:
        net_stats[gate.output] = model.output_stats(
            gate.compiled(), _pin_stats(gate, net_stats)
        )
    return net_stats


def _price(
    gates: List[GateInstance],
    net_stats: Mapping[str, SignalStats],
    circuit: Circuit,
    model: GatePowerModel,
    po_load: float,
    current: bool = False,
):
    """One batched pricing call over ``gates`` as ``circuit`` stands.

    Prices every configuration of every gate (only the present one with
    ``current``) and returns ``(prices, loads)``: the
    :class:`~repro.compiled.power.ConfigurationPrices` and each gate's
    external load.
    """
    # Imported lazily: repro.compiled imports this package.
    from ..compiled.power import price_configurations

    loads = [circuit.output_load(gate.output, model.tech, po_load)
             for gate in gates]
    p_in, d_in = [], []
    for gate in gates:
        pins = [net_stats[gate.pin_nets[pin]] for pin in gate.template.pins]
        p_in.append([s.probability for s in pins])
        d_in.append([s.density for s in pins])
    configs = [[gate.effective_config()] for gate in gates] if current else None
    tracer = _trace.ACTIVE
    span = (tracer.span("optimize.price", gates=len(gates))
            if tracer is not None else _trace.NULL_SPAN)
    with span:
        prices = price_configurations(
            model, [gate.template for gate in gates], p_in, d_in, loads,
            configs,
        )
        span.note(candidates=prices.candidates, classes=prices.classes)
    _CONFIGS_PRICED.inc(prices.candidates)
    return prices, loads


def _choose(
    objective: str,
    gate: GateInstance,
    configs: List[GateConfig],
    totals: Sequence[float],
    default: int,
    model: GatePowerModel,
    load: float,
) -> int:
    """Position in ``configs`` of the pick under ``objective`` (deterministic ties).

    ``totals`` holds each configuration's modelled power and ``default``
    the as-mapped configuration's position.
    """
    template = gate.template
    candidates: Sequence[int] = range(len(configs))
    if objective == "delay-constrained":
        candidates = _delay_feasible(gate, configs, default, model.tech, load)
    if objective == "worst":
        return min(candidates, key=lambda k: (-totals[k], configs[k].key()))
    if objective == "fastest":
        return min(
            candidates,
            key=lambda k: (
                gate_worst_delay(
                    template.compile_config(configs[k]), configs[k],
                    model.tech, load,
                ),
                configs[k].key(),
            ),
        )
    return min(candidates, key=lambda k: (totals[k], configs[k].key()))


def _delay_feasible(
    gate: GateInstance,
    configs: List[GateConfig],
    default: int,
    tech: TechParams,
    load: float,
) -> List[int]:
    """Positions of the configurations whose every pin delay is within the default's."""
    default_config = configs[default]
    compiled_default = gate.template.compile_config(default_config)
    limits = {
        pin: gate_pin_delay(compiled_default, default_config, pin, tech, load)
        for pin in gate.template.pins
    }
    feasible = []
    for k, config in enumerate(configs):
        compiled = gate.template.compile_config(config)
        ok = all(
            gate_pin_delay(compiled, config, pin, tech, load)
            <= limits[pin] * (1.0 + 1e-9)
            for pin in gate.template.pins
        )
        if ok:
            feasible.append(k)
    return feasible or [default]


def circuit_power(
    circuit: Circuit,
    input_stats: Mapping[str, SignalStats],
    model: Optional[GatePowerModel] = None,
    po_load: float = DEFAULT_PO_LOAD,
    net_stats: Optional[Mapping[str, SignalStats]] = None,
) -> CircuitPowerReport:
    """Total modelled power of ``circuit`` with its current configurations.

    ``net_stats`` may be supplied to reuse an existing propagation
    (statistics do not depend on the chosen orderings).
    """
    from ..stochastic.density import local_stats

    model = model if model is not None else GatePowerModel()
    if net_stats is None:
        net_stats = local_stats(circuit, input_stats)
    by_gate: Dict[str, GatePowerReport] = {}
    total = 0.0
    for gate in circuit.gates:
        stats = _pin_stats(gate, net_stats)
        load = circuit.output_load(gate.output, model.tech, po_load)
        report = model.gate_power(gate.compiled(), stats, load)
        by_gate[gate.name] = report
        total += report.total
    return CircuitPowerReport(total, by_gate, dict(net_stats))
