"""Pluggable (P, D) backends for the incremental engine.

A backend owns the arithmetic of signal-statistics propagation; the
:class:`~repro.incremental.cache.StatsCache` owns the dirty-set
bookkeeping and calls the backend through two methods:

``full(circuit, input_stats)``
    Propagate everything from scratch and return the complete
    net-to-:class:`SignalStats` map.  Called once, at cache
    construction.  A backend may keep internal state (the sampled
    backend stores every net's packed word history here).

``update(circuit, dirty_gates, input_stats, changed_inputs, net_stats)``
    Re-propagate exactly ``dirty_gates`` — already sorted in
    topological order — plus the ``changed_inputs``, reading clean
    fanin values from ``net_stats`` (the cache's current map, which the
    backend must not mutate).  Returns the new statistics for the
    recomputed nets only.

The contract that makes the whole subsystem trustworthy: after any
supported edit sequence, ``full`` on the edited circuit and the
accumulated ``update`` results must be **bit-identical** (exact float
equality, not approximate).  Both backends here achieve it the same
way — the incremental path runs the very same per-gate arithmetic, in
the same order, on the same operands as the from-scratch path.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Dict, FrozenSet, Mapping, Optional, Sequence

import numpy as np

from ..circuit.netlist import Circuit, GateInstance
from ..sim.bitsim import (
    DEFAULT_LANES,
    BitParallelSimulator,
    markov_stream_words,
    report_from_history,
    stream_rng,
)
from ..stochastic.density import local_gate_stats, local_stats
from ..stochastic.signal import SignalStats

__all__ = ["StatsBackend", "AnalyticBackend", "SampledBackend", "make_backend"]


class StatsBackend:
    """Abstract backend; see the module docstring for the contract."""

    name = "abstract"
    #: Whether ``update`` stays correct across structural edits
    #: (add/remove/rewire).  Stateless backends recompute dirty gates
    #: from the circuit's current connectivity, so they qualify;
    #: stateful ones (the sampled backends keep per-net lane histories
    #: keyed to the old structure) must refuse, and
    #: :class:`~repro.incremental.cache.StatsCache` raises a clear
    #: error before any state can go stale.
    supports_structure = False

    def full(self, circuit: Circuit,
             input_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
        raise NotImplementedError

    def update(self, circuit: Circuit,
               dirty_gates: Sequence[GateInstance],
               input_stats: Mapping[str, SignalStats],
               changed_inputs: FrozenSet[str],
               net_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
        raise NotImplementedError


class AnalyticBackend(StatsBackend):
    """Gate-local analytic density propagation (the paper's engine).

    Stateless: each gate's output (P, D) is a pure function of its
    fanin nets' statistics (:func:`repro.stochastic.density.local_gate_stats`),
    so re-running it on a dirty cone in topological order reproduces a
    from-scratch :func:`~repro.stochastic.density.local_stats` sweep
    exactly.
    """

    name = "analytic"
    supports_structure = True

    def full(self, circuit, input_stats):
        return local_stats(circuit, input_stats)

    def update(self, circuit, dirty_gates, input_stats, changed_inputs, net_stats):
        updates: Dict[str, SignalStats] = {
            net: input_stats[net] for net in changed_inputs
        }
        view = ChainMap(updates, net_stats)
        for gate in dirty_gates:
            updates[gate.output] = local_gate_stats(gate, view)
        return updates


class SampledBackend(StatsBackend):
    """Bit-parallel Monte Carlo measurement with lane-history re-settling.

    ``full`` draws every input's Markov-chain word stream from its own
    RNG substream (:func:`repro.sim.bitsim.stream_rng`), settles the
    whole circuit once, and keeps the per-net, per-step word history.
    ``update`` then re-settles only the dirty gates' streams against
    the stored history (:meth:`BitParallelSimulator.resettle`) —
    cone-sized work per edit — and re-counts only the updated nets.

    Two consequences of the per-input substreams:

    * editing one input's :class:`SignalStats` regenerates only that
      input's stream, so the dirty set stays the input's fanout cone;
    * the estimates differ from :func:`repro.sim.bitsim.sampled_stats`
      (which interleaves all inputs on one shared stream) by RNG
      stream only — same estimator, same distribution.

    The step size ``dt`` is resolved once, at ``full`` time (half the
    shortest mean input dwell when not given), and then **frozen** —
    a statistics edit that re-derived ``dt`` would perturb every
    stream and dirty the whole circuit.  Pass an explicit ``dt`` when
    what-if edits may shorten dwell times below the initial ones.
    """

    name = "sampled"

    def __init__(self, lanes: int = DEFAULT_LANES, steps: int = 64,
                 dt: Optional[float] = None, seed: int = 0):
        if steps < 1:
            raise ValueError("need at least one time step")
        self.lanes = lanes
        self.steps = steps
        self.seed = seed
        self.dt = dt
        self._simulator: Optional[BitParallelSimulator] = None
        self._history: Optional[Dict[str, list]] = None
        #: Materialised input substreams, keyed by ``(net, P, D)`` and
        #: kept for the lifetime of the run (``seed``/``lanes``/``steps``
        #: are fixed per backend, and ``dt`` is frozen at ``full`` time).
        #: An input-stats edit used to rebuild ``stream_rng`` and redraw
        #: the whole stream on every update — including the rollback leg
        #: of every :class:`~repro.incremental.eco.WhatIf` trial, which
        #: always restores statistics the run has already drawn words
        #: for.  The cached word lists are never mutated (``resettle``
        #: only rebinds gate-output entries), so sharing them is safe.
        self._stream_cache: Dict[tuple, list] = {}

    def _resolve_dt(self, circuit, input_stats) -> float:
        if self.dt is not None:
            if self.dt <= 0.0:
                raise ValueError("dt must be positive")
            return self.dt
        shortest = np.inf
        for net in circuit.inputs:
            stats = input_stats[net]
            shortest = min(shortest, stats.mean_high_dwell, stats.mean_low_dwell)
        return 0.5 * shortest if np.isfinite(shortest) else 1.0

    def _input_stream(self, net: str, stats) -> list:
        """The net's packed word stream, drawn once per distinct (P, D).

        Regenerating a substream is deterministic — ``stream_rng`` is
        rebuilt from ``(seed, net)`` every time — so caching the words
        changes nothing bit-wise; it only stops the inner trial loops
        from redrawing streams the run has already seen.
        """
        key = (net, stats.probability, stats.density)
        words = self._stream_cache.get(key)
        if words is None:
            words = markov_stream_words(
                stats, self.lanes, self.steps, self.dt,
                stream_rng(self.seed, net),
            )
            self._stream_cache[key] = words
        return words

    def full(self, circuit, input_stats):
        self.dt = self._resolve_dt(circuit, input_stats)
        self._stream_cache.clear()  # dt may have changed; old words are stale
        self._simulator = BitParallelSimulator(circuit, self.lanes)
        streams = {
            net: self._input_stream(net, input_stats[net])
            for net in circuit.inputs
        }
        self._history = self._simulator.settle_streams(streams)
        report = report_from_history(self._history, self.lanes, self.dt)
        return report.stats_map()

    def update(self, circuit, dirty_gates, input_stats, changed_inputs, net_stats):
        if self._history is None:
            raise RuntimeError("update() before full()")
        for net in changed_inputs:
            self._history[net] = self._input_stream(net, input_stats[net])
        self._simulator.resettle(self._history, dirty_gates)
        updated = set(changed_inputs)
        updated.update(g.output for g in dirty_gates)
        report = report_from_history(
            {net: self._history[net] for net in updated}, self.lanes, self.dt
        )
        return {net: report.measured_stats(net) for net in updated}


def make_backend(backend, **kwargs) -> StatsBackend:
    """Resolve a backend name (or pass through an instance).

    ``"analytic"``/``"local"`` select the flat-array
    :class:`repro.compiled.backend.CompiledAnalyticBackend`, and
    ``"sampled"`` (forwarding ``lanes``/``steps``/``dt``/``seed``) its
    uint64-block twin
    :class:`repro.compiled.sampled.CompiledSampledBackend`.  Under
    ``REPRO_COMPILED=0`` they select the object-graph oracles
    :class:`AnalyticBackend` and :class:`SampledBackend` instead;
    results are bit-identical either way.
    """
    if isinstance(backend, StatsBackend):
        if kwargs:
            raise TypeError(
                f"backend arguments {sorted(kwargs)} conflict with an instance"
            )
        return backend
    from ..compiled.flags import compiled_default

    if backend in ("analytic", "local"):
        if kwargs:
            raise TypeError(
                f"the analytic backend takes no arguments: {sorted(kwargs)}"
            )
        if compiled_default():
            from ..compiled.backend import CompiledAnalyticBackend

            return CompiledAnalyticBackend()
        return AnalyticBackend()
    if backend == "sampled":
        if compiled_default():
            from ..compiled.sampled import CompiledSampledBackend

            return CompiledSampledBackend(**kwargs)
        return SampledBackend(**kwargs)
    raise ValueError(
        f"unknown backend {backend!r}; use 'analytic', 'sampled' or an instance"
    )
