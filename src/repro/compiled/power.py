"""Class-shaped vectorized evaluation of the gate power model.

The object path (:meth:`GatePowerModel.gate_power`) prices one gate
configuration per call — per node, per pin, one
:meth:`TruthTable.probability` call each for ``H``, ``G`` and the two
Boolean differences.  This module lowers that arithmetic the same way
:mod:`repro.compiled.circuit` lowers the (P, D) sweep: gates sharing a
(template, configuration) class share all node tables, so one pass
computes the per-minterm weight matrix of a whole same-class batch and
reduces every node's probability/transition columns at once.

Two consumers:

* :func:`price_configurations` — every candidate configuration of a
  batch of gates, one evaluation per class: the optimiser's one
  pricing call per pass and the search engine's reorder-batch pricing;
* :class:`CompiledPowerKernel` — the current configuration of a
  compiled circuit's gates: :class:`~repro.incremental.cache.StatsCache`'s
  compiled power refresh.

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

Power classes key on (template, configuration) — the exact key space
of the timing classes — and are built once per process
(:func:`power_class`), so the circuit kernel reuses the compiled
circuit's ``timing_code`` bookkeeping and both consumers share every
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
from .circuit import CompiledCircuit, _pairwise_block, _tt_selection

__all__ = ["CompiledPowerKernel", "ConfigurationPrices", "power_class",
           "price_configurations"]

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

#: ``template.configurations()`` per template, enumerated once.
_CONFIGURATIONS: Dict[GateTemplate, Tuple[GateConfig, ...]] = {}


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
        configs = []
        for template in templates:
            listed = _CONFIGURATIONS.get(template)
            if listed is None:
                listed = tuple(template.configurations())
                _CONFIGURATIONS[template] = listed
            configs.append(listed)
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


class CompiledPowerKernel:
    """Batched power pricing over one compiled circuit.

    Classes come from the process-wide registry (:func:`power_class`);
    per-gate class membership rides on the compiled circuit's
    ``timing_code`` (same key space), so edit listeners keep it current
    for free.
    """

    def __init__(self, cc: CompiledCircuit, model: GatePowerModel):
        self.cc = cc
        self.model = model

    def class_for_code(self, code: int) -> _PowerClass:
        """Class of the circuit's timing class ``code`` (same key space)."""
        return power_class(self.cc._timing_classes[code]._compiled)

    # ------------------------------------------------------------------
    def _gather(self, gids: Sequence[int], arity: int,
                stats: Mapping) -> tuple:
        """Pin (P, D) matrices of same-arity gates from a stats map."""
        cc = self.cc
        count = len(gids)
        p_in = np.empty((count, arity))
        d_in = np.empty((count, arity))
        for row, gid in enumerate(gids):
            start = cc.fanin_ptr[gid]
            for j in range(arity):
                s = stats[cc.nets[cc.fanin_net[start + j]]]
                p_in[row, j] = s.probability
                d_in[row, j] = s.density
        return p_in, d_in

    def reports(self, names: Sequence[str], stats: Mapping,
                po_load: float) -> Dict[str, GatePowerReport]:
        """Fresh :class:`GatePowerReport` per gate, batched by class.

        ``stats`` maps net name to :class:`SignalStats` (the cache's
        current map); ``po_load`` is the resolved primary-output load.
        Bit-identical to calling :meth:`GatePowerModel.gate_power` per
        gate with loads from :func:`~repro.gates.capacitance.net_load`.
        """
        cc = self.cc
        model = self.model
        cc._sync_codes()
        loads = cc.net_loads(model.tech, po_load)
        gids = np.fromiter((cc.gate_id[n] for n in names), dtype=np.int64,
                           count=len(names))
        out: Dict[str, GatePowerReport] = {}
        if not len(gids):
            return out
        codes = cc.timing_code[gids]
        for code in np.unique(codes):
            sub = gids[codes == code]
            cls = self.class_for_code(int(code))
            p_in, d_in = self._gather(sub, cls.arity, stats)
            gate_loads = loads[cc.out_net[sub]]
            columns = cls.evaluate(model, p_in, d_in, gate_loads)
            for row, gid in enumerate(sub):
                out[cc.gate_names[gid]] = _report(cls, columns, row,
                                                  model.tech)
        return out

    def gate_totals(self, names: Sequence[str], stats: Mapping,
                    po_load: float) -> np.ndarray:
        """Total power per gate (no report objects), batched by class."""
        cc = self.cc
        model = self.model
        cc._sync_codes()
        loads = cc.net_loads(model.tech, po_load)
        gids = np.fromiter((cc.gate_id[n] for n in names), dtype=np.int64,
                           count=len(names))
        totals = np.empty(len(gids))
        if not len(gids):
            return totals
        codes = cc.timing_code[gids]
        positions = np.arange(len(gids))
        for code in np.unique(codes):
            where = codes == code
            sub = gids[where]
            cls = self.class_for_code(int(code))
            p_in, d_in = self._gather(sub, cls.arity, stats)
            *_, batch_totals = cls.evaluate(model, p_in, d_in,
                                            loads[cc.out_net[sub]])
            totals[positions[where]] = batch_totals
        return totals
