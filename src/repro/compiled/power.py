"""Class-shaped vectorized evaluation of the gate power model.

The object path (:meth:`GatePowerModel.gate_power`) prices one gate
configuration per call — per node, per pin, one
:meth:`TruthTable.probability` call each for ``H``, ``G`` and the two
Boolean differences.  This module lowers that arithmetic the same way
:mod:`repro.compiled.circuit` lowers the (P, D) sweep: gates sharing a
(template, configuration) class share all node tables, so one pass
computes the per-minterm weight matrix of a whole same-class batch and
reduces every node's probability/transition columns at once.

One entry point, :func:`price_configurations`: every candidate
configuration of a batch of gates, one evaluation per class.  Its
callers are the optimiser (one pricing call per pass) and the search
engine's retemplate pricer (each candidate's repriced gates); the
circuit-side form :func:`price_gates` (pin statistics and loads read
off a live circuit) serves
:class:`~repro.incremental.cache.StatsCache`'s power refresh (each
dirty gate's current configuration) and the search engine's reorder
pricer.

**The equivalence contract.**  Bit-identical to
:class:`~repro.core.power_model.GatePowerModel` — every float comes
out of the same operations in the same order:

* per-minterm weights and masked sums follow
  :meth:`TruthTable.probability` (via ``_pairwise_block``, the 1-D
  pairwise summation lift, over all same-length selections at once);
* the steady-state guard ``ph + pg <= eps -> 0`` and the conditioned
  formula's denominators reproduce
  :meth:`GatePowerModel.node_probability` /
  :meth:`~GatePowerModel._transition_fraction`, with ``np.where``
  substituting the guarded denominators so live lanes divide by the
  identical double;
* per-pin transition terms accumulate in pin order with the same
  skip-zero-density fold as :meth:`GatePowerModel.node_transitions`;
* node capacitances follow :func:`repro.gates.capacitance.node_capacitance`
  (class-constant intrinsic terms, per-gate output load added last) and
  node powers ``(factor * cap) * transitions`` keep the Python
  left-to-right association.

Power classes key on (template, configuration) and are built once
per process (:func:`power_class`), so every caller shares every
class.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..boolean.truthtable import TruthTable, _minterm_matrix
from ..core.power_model import (
    _EPS,
    GatePowerModel,
    GatePowerReport,
    NodePowerEntry,
)
from ..gates.library import GateConfig, GateTemplate
from ..gates.network import OUT, CompiledGate
from ..obs.metrics import REGISTRY as _METRICS
from ..stochastic.signal import SignalStats
from .circuit import _pairwise_block, _tt_selection

__all__ = ["ConfigurationPrices", "power_class", "price_configurations",
           "price_gates"]

#: Process-global kernel metrics: power-kernel invocation counts and
#: batch-size distribution (see :mod:`repro.compiled.circuit` for the
#: statistics/timing twins).
_POWER_EVAL_CALLS = _METRICS.counter("compiled.power_eval.calls")
_POWER_EVAL_SIZES = _METRICS.histogram("compiled.power_eval.batch_size")


def _table(tt: TruthTable) -> tuple:
    """``(selection, constant)`` form of one node table.

    Mirrors :meth:`TruthTable.probability`'s early-out: constants (and
    zero-variable tables) evaluate to an exact 0.0/1.0; everything
    else selects minterm weights.
    """
    if len(tt.vars) == 0 or tt.is_constant():
        return None, (1.0 if tt.bits else 0.0)
    return _tt_selection(tt), None


class _PowerClass:
    """Per-(template, configuration) data of the power kernel.

    Every node table of the class — ``H`` and ``G`` per node, then
    ``∂H`` and ``∂G`` per (pin, node) — is one column of a probability
    matrix.  Columns whose minterm selections have the same length are
    summed together (``_pairwise_block`` over a ``(rows, length,
    tables)`` block adds the same floats in the same order per
    element), and the formula arithmetic runs on ``(rows, nodes)``
    arrays, one pin at a time — elementwise, so every lane sees the
    operation sequence of :meth:`GatePowerModel.gate_power`.
    """

    __slots__ = ("arity", "mat", "nodes", "out", "is_out", "terminals",
                 "width", "const_cols", "const_vals", "length_groups")

    def __init__(self, compiled: CompiledGate):
        self.arity = len(compiled.inputs)
        self.mat = _minterm_matrix(self.arity) if self.arity else None
        self.nodes: Tuple[str, ...] = compiled.nodes
        self.out = self.nodes.index(OUT)
        self.is_out = np.array([node == OUT for node in self.nodes])
        #: Load-independent node capacitance terms, scaled by the tech
        #: at evaluation time (config-independent transistor counts).
        self.terminals = [compiled.terminal_counts[node]
                          for node in self.nodes]
        tables = [compiled.h[node] for node in self.nodes]
        tables += [compiled.g[node] for node in self.nodes]
        for diff in (compiled.dh, compiled.dg):
            tables += [diff[(node, pin)] for pin in compiled.inputs
                       for node in self.nodes]
        self.width = len(tables)
        const_cols, const_vals = [], []
        by_length: Dict[int, Tuple[List[int], List[np.ndarray]]] = {}
        for col, tt in enumerate(tables):
            sel, const = _table(tt)
            if sel is None:
                const_cols.append(col)
                const_vals.append(const)
            else:
                cols, sels = by_length.setdefault(len(sel), ([], []))
                cols.append(col)
                sels.append(sel)
        self.const_cols = np.array(const_cols, dtype=np.int64)
        self.const_vals = np.array(const_vals, dtype=float)
        #: ``(columns, selections)`` per selection length; selections
        #: is ``(length, tables)`` so a gather yields the summation
        #: axis first after the rows.
        self.length_groups = [
            (np.array(cols, dtype=np.int64), np.stack(sels, axis=1))
            for cols, sels in by_length.values()
        ]

    def _probabilities(self, p_in: np.ndarray, count: int) -> np.ndarray:
        """``(rows, tables)`` matrix of every node table's probability."""
        probs = np.empty((count, self.width))
        probs[:, self.const_cols] = self.const_vals
        if self.length_groups:
            weights = np.prod(
                np.where(self.mat[None, :, :] == 1,
                         p_in[:, None, :], 1.0 - p_in[:, None, :]),
                axis=2,
            )
            for cols, sel in self.length_groups:
                picked = weights[:, sel]
                probs[:, cols] = np.minimum(1.0, np.maximum(
                    0.0, _pairwise_block(picked, 0, sel.shape[0])))
        return probs

    def evaluate(self, model: GatePowerModel, p_in: np.ndarray,
                 d_in: np.ndarray, loads: np.ndarray):
        """Node-level power of one same-class batch.

        Returns ``(caps, p_node, transitions, power, totals)`` — the
        first four ``(nodes, rows)`` arrays (row ``i`` is node ``i``'s
        per-gate column), ``totals`` one per-gate column — every float
        bit-identical to :meth:`GatePowerModel.gate_power`.
        """
        count = len(loads)
        _POWER_EVAL_CALLS.inc()
        _POWER_EVAL_SIZES.observe(count)
        tech = model.tech
        formula = model.formula
        n = len(self.nodes)
        probs = self._probabilities(p_in, count)
        ph = probs[:, :n]
        pg = probs[:, n:2 * n]
        ok = (ph + pg) > _EPS
        p_node = np.where(ok, ph / np.where(ok, ph + pg, 1.0), 0.0)
        okr = (1.0 - ph) > _EPS
        okf = (1.0 - pg) > _EPS
        total = np.zeros((count, n))
        dh0 = 2 * n
        dg0 = dh0 + self.arity * n
        for j in range(self.arity):
            d_col = d_in[:, j:j + 1]
            p_dh = probs[:, dh0 + j * n:dh0 + (j + 1) * n]
            p_dg = probs[:, dg0 + j * n:dg0 + (j + 1) * n]
            if formula == "output-only":
                frac = np.where(self.is_out, p_dh, 0.0)
            elif formula == "independent":
                frac = p_dh * (1.0 - p_node) + p_dg * p_node
            else:  # "conditioned"
                rise = np.where(
                    okr,
                    (0.5 * p_dh) * np.minimum(
                        1.0, (1.0 - p_node) / np.where(okr, 1.0 - ph, 1.0)),
                    0.0,
                )
                fall = np.where(
                    okf,
                    (0.5 * p_dg) * np.minimum(
                        1.0, p_node / np.where(okf, 1.0 - pg, 1.0)),
                    0.0,
                )
                frac = rise + fall
            # node_transitions skips zero-density pins; np.where keeps
            # the fold literally identical.
            total = np.where(d_col == 0.0, total, total + d_col * frac)
        transitions = np.where(ok, total, 0.0)
        # node_capacitance: intrinsic terms are class constants; the
        # external load lands last, output node only.
        bases = [terminals * tech.c_diff for terminals in self.terminals]
        caps = np.tile(np.array(bases), (count, 1))
        caps[:, self.out] = (bases[self.out] + tech.c_wire) + loads
        power = (tech.switch_energy_factor * caps) * transitions
        # GatePowerReport.total is a left fold over the entries.
        totals = np.zeros(count)
        for i in range(n):
            totals = totals + power[:, i]
        return caps.T, p_node.T, transitions.T, power.T, totals


#: One :class:`_PowerClass` per compiled configuration, process-wide.
#: :data:`repro.gates.library._COMPILE_CACHE` interns one
#: :class:`CompiledGate` per (configuration, pins), so keying on it holds
#: exactly one class per (template, configuration), built once.
_CLASS_CACHE: Dict[CompiledGate, _PowerClass] = {}


def power_class(compiled: CompiledGate) -> _PowerClass:
    """The shared kernel class of one compiled gate configuration."""
    cls = _CLASS_CACHE.get(compiled)
    if cls is None:
        cls = _PowerClass(compiled)
        _CLASS_CACHE[compiled] = cls
    return cls


def _report(cls: _PowerClass, columns: tuple, row: int,
            tech) -> GatePowerReport:
    """One gate's :class:`GatePowerReport` from ``evaluate`` columns."""
    caps, probs, trans, powers, _ = columns
    return GatePowerReport(tuple(
        NodePowerEntry(
            node,
            float(caps[i][row]),
            float(probs[i][row]),
            float(trans[i][row]),
            float(powers[i][row]),
        )
        for i, node in enumerate(cls.nodes)
    ), tech)


class ConfigurationPrices:
    """The priced (gate, configuration) candidates of one batch.

    ``configs[i]`` lists gate ``i``'s candidates and ``totals[i]`` their
    modelled powers (Python floats) in the same order; ``classes`` is
    the number of kernel classes evaluated.  :meth:`report` rebuilds
    one candidate's full :class:`GatePowerReport` from the kernel's
    node columns, without re-evaluating anything.
    """

    __slots__ = ("configs", "totals", "classes", "_tech", "_where")

    def __init__(self, configs, totals, classes, tech, where):
        self.configs: List[Sequence[GateConfig]] = configs
        self.totals: List[List[float]] = totals
        self.classes: int = classes
        self._tech = tech
        self._where = where

    @property
    def candidates(self) -> int:
        return sum(len(row) for row in self.totals)

    def report(self, gate: int, position: int) -> GatePowerReport:
        cls, columns, row = self._where[gate][position]
        return _report(cls, columns, row, self._tech)


def price_configurations(
    model: GatePowerModel,
    templates: Sequence[GateTemplate],
    p_in: Sequence[Sequence[float]],
    d_in: Sequence[Sequence[float]],
    loads: Sequence[float],
    configs: Optional[Sequence[Sequence[GateConfig]]] = None,
) -> ConfigurationPrices:
    """Price every candidate configuration of a batch of gates at once.

    Gate ``i`` has template ``templates[i]``, pin probabilities and
    densities ``p_in[i]`` / ``d_in[i]`` in template pin order, and
    external output load ``loads[i]``; its candidates are
    ``configs[i]`` (default: every ``template.configurations()``).
    Candidates are grouped by (template, configuration) class and each
    class is evaluated once over all of its gates.  Every total is
    bit-identical to ``model.gate_power(...).total`` of that
    configuration — what the oracle
    :func:`repro.core.reorder.evaluate_configurations` computes.
    """
    if configs is None:
        configs = [template.configurations() for template in templates]
    groups: Dict[_PowerClass, List[Tuple[int, int]]] = {}
    for i, (template, candidates) in enumerate(zip(templates, configs)):
        for j, config in enumerate(candidates):
            cls = power_class(template.compile_config(config))
            groups.setdefault(cls, []).append((i, j))
    totals = [[0.0] * len(row) for row in configs]
    where: List[list] = [[None] * len(row) for row in configs]
    for cls, slots in groups.items():
        rows = [i for i, _ in slots]
        columns = cls.evaluate(
            model,
            np.array([p_in[i] for i in rows], dtype=float),
            np.array([d_in[i] for i in rows], dtype=float),
            np.array([loads[i] for i in rows], dtype=float),
        )
        for row, ((i, j), total) in enumerate(zip(slots,
                                                  columns[-1].tolist())):
            totals[i][j] = total
            where[i][j] = (cls, columns, row)
    return ConfigurationPrices(list(configs), totals,
                               len(groups), model.tech, where)


def price_gates(model: GatePowerModel, cc, gates: Sequence,
                stats: Mapping[str, SignalStats], po_load: float,
                configs: Optional[Sequence[Sequence[GateConfig]]] = None,
                ) -> ConfigurationPrices:
    """:func:`price_configurations` for gates of a lowered circuit.

    Each gate's pin statistics come from ``stats`` (net -> (P, D)) and
    its output load from ``cc.net_loads`` (the compiled circuit
    ``cc`` of the gates' circuit); its candidates are ``configs[i]``,
    by default its current configuration alone.
    """
    loads = cc.net_loads(model.tech, po_load)
    pins = [[stats[net] for net in gate.fanin_nets] for gate in gates]
    return price_configurations(
        model, [gate.template for gate in gates],
        [[s.probability for s in row] for row in pins],
        [[s.density for s in row] for row in pins],
        [loads[cc.net_id[gate.output]] for gate in gates],
        configs if configs is not None else [[gate.config] for gate in gates],
    )
