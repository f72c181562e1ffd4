"""The flat-array analytic (P, D) backend for :class:`StatsCache`.

Same contract as :class:`repro.incremental.backends.AnalyticBackend`
— ``full`` then incremental ``update`` calls must accumulate to the
bit-identical statistics a from-scratch run would produce — but the
arithmetic runs on the circuit's :class:`~repro.compiled.circuit.CompiledCircuit`
arrays instead of walking gate objects.  The backend keeps the live
``(prob, dens)`` arrays across updates; every mutation of the cache's
statistics flows through :meth:`update`, so the arrays never drift
from the cache's map.

The default analytic backend (``REPRO_COMPILED=0`` selects the object
one instead; see :mod:`repro.compiled.flags`); ``name`` stays ``"analytic"`` so artifacts and reports are unaffected
by which engine produced the numbers — they are the same numbers.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..incremental.backends import AnalyticBackend
from ..stochastic.signal import SignalStats
from .circuit import CompiledCircuit, get_compiled

__all__ = ["CompiledAnalyticBackend"]


class CompiledAnalyticBackend(AnalyticBackend):
    """Analytic propagation on flat arrays; bit-identical to the object path.

    A subclass — not a sibling — of :class:`AnalyticBackend`: it
    computes the same function with the same name, so code (and tests)
    asking "is this the analytic backend?" should keep saying yes
    whichever engine the flag picked.
    """

    name = "analytic"
    compiled = True

    def __init__(self):
        self._cc: Optional[CompiledCircuit] = None
        self._prob: Optional[np.ndarray] = None
        self._dens: Optional[np.ndarray] = None

    def full(self, circuit, input_stats):
        self._cc = get_compiled(circuit)
        self._prob, self._dens = self._cc.stats_arrays(input_stats)
        stats: Dict[str, SignalStats] = {
            net: input_stats[net] for net in circuit.inputs
        }
        for gid, name in enumerate(self._cc.gate_names):
            out = self._cc.num_inputs + gid
            stats[self._cc.nets[out]] = SignalStats(
                float(self._prob[out]), float(self._dens[out])
            )
        return stats

    def _rebuild(self, circuit, input_stats, net_stats) -> CompiledCircuit:
        """Re-lower after a structural edit, seeding from ``net_stats``.

        The previous lowering went stale (gate/net ids changed), but the
        cache's statistics map is still exact for every surviving net:
        the floats it holds were read out of these very arrays, so
        writing them back is lossless.  Nets new to the circuit start at
        zero — they belong to the dirty cone of this update and are
        resettled (in level order, before any sink reads them) below.
        """
        cc = self._cc = get_compiled(circuit)
        prob = np.zeros(len(cc.nets))
        dens = np.zeros(len(cc.nets))
        for i, net in enumerate(cc.nets):
            stats = net_stats.get(net)
            if stats is None and net in input_stats:
                stats = input_stats[net]
            if stats is not None:
                prob[i] = stats.probability
                dens[i] = stats.density
        self._prob, self._dens = prob, dens
        return cc

    def update(self, circuit, dirty_gates, input_stats, changed_inputs,
               net_stats):
        cc = self._cc
        if cc is None:
            raise RuntimeError("update() before full()")
        if cc.stale:
            cc = self._rebuild(circuit, input_stats, net_stats)
        updates: Dict[str, SignalStats] = {}
        for net in changed_inputs:
            stats = input_stats[net]
            updates[net] = stats
            net_index = cc.net_id[net]
            self._prob[net_index] = stats.probability
            self._dens[net_index] = stats.density
        gate_ids = np.fromiter(
            (cc.gate_id[g.name] for g in dirty_gates),
            dtype=np.int64, count=len(dirty_gates),
        )
        cc.resettle_stats(gate_ids, self._prob, self._dens)
        for gate in dirty_gates:
            out = cc.net_id[gate.output]
            updates[gate.output] = SignalStats(
                float(self._prob[out]), float(self._dens[out])
            )
        return updates
