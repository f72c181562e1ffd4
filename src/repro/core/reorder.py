"""Exhaustive exploration of gate configurations (paper §4.3, Figure 4).

Two independent enumerators are provided:

* :func:`enumerate_configurations` — brute force: every permutation of
  the children of every series composition, for the PDN and the PUN
  independently (parallel branches join the same electrical nodes, so
  only series order matters);
* :func:`pivot_search` — the paper's Figure 4 algorithm: recursively
  *pivot* on an internal node (transpose the two series blocks adjacent
  to it), prune already-visited configurations, and recurse on every
  other internal node.  The test suite proves it generates exactly the
  same configuration set as brute force over the whole Table 2 library.

:func:`find_best_configuration` / :func:`find_worst_configuration`
evaluate all configurations under the power model and return the
extremes — the paper evaluates its savings as best-versus-worst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..gates import sptree
from ..gates.library import GateConfig, GateTemplate
from ..gates.sptree import SPTree
from ..stochastic.signal import SignalStats
from .power_model import GatePowerModel, GatePowerReport

__all__ = [
    "enumerate_configurations",
    "pivot_search",
    "evaluate_configurations",
    "find_best_configuration",
    "find_worst_configuration",
    "ConfigEvaluation",
]

#: A pivot handle: which network ('pdn'/'pun') plus the series gap inside it.
_Handle = Tuple[str, Tuple[int, ...], int]


def enumerate_configurations(template: GateTemplate) -> List[GateConfig]:
    """All distinct transistor orderings of a gate, brute force."""
    return template.configurations()


def _handles(config: GateConfig) -> List[_Handle]:
    handles: List[_Handle] = []
    for net_name, tree in (("pdn", config.pdn), ("pun", config.pun)):
        for path, gap in sptree.series_gaps(tree):
            handles.append((net_name, path, gap))
    return handles


def _pivot(config: GateConfig, handle: _Handle) -> GateConfig:
    net_name, path, gap = handle
    if net_name == "pdn":
        return GateConfig(sptree.swap_gap(config.pdn, path, gap), config.pun)
    return GateConfig(config.pdn, sptree.swap_gap(config.pun, path, gap))


def pivot_search(template_or_config, max_configs: Optional[int] = None) -> List[GateConfig]:
    """FIND_ALL_REORDERINGS of the paper's Figure 4.

    Starting from the gate's current configuration, repeatedly pivot on
    internal nodes; a pivot transposes the two series blocks adjacent to
    the node.  Already-visited configurations prune the recursion, and
    the node just pivoted on is skipped in the recursive call (the
    paper's "except the current one" optimisation).  Returns
    configurations in discovery order, starting configuration first.
    """
    if isinstance(template_or_config, GateTemplate):
        start = template_or_config.default_config()
    else:
        start = template_or_config
    visited: Dict[tuple, GateConfig] = {start.key(): start}
    order: List[GateConfig] = [start]

    def search(config: GateConfig, exclude: Optional[int]) -> None:
        handles = _handles(config)
        for index, handle in enumerate(handles):
            if max_configs is not None and len(order) >= max_configs:
                return
            if index == exclude:
                continue
            candidate = _pivot(config, handle)
            key = candidate.key()
            if key in visited:
                continue
            visited[key] = candidate
            order.append(candidate)
            search(candidate, index)

    search(start, None)
    return order


@dataclass(frozen=True)
class ConfigEvaluation:
    """A configuration together with its modelled power."""

    config: GateConfig
    power: float
    report: GatePowerReport


def evaluate_configurations(
    template: GateTemplate,
    stats: Mapping[str, SignalStats],
    model: GatePowerModel,
    output_load: float = 0.0,
    configs: Optional[List[GateConfig]] = None,
) -> List[ConfigEvaluation]:
    """Model power of every configuration; deterministic order.

    The per-configuration reference path.  The optimiser prices its
    candidates in one batched call
    (:func:`repro.compiled.power.price_configurations`), which the test
    suite holds bit-identical to this oracle.
    """
    if configs is None:
        configs = template.configurations()
    evaluations = []
    for config in configs:
        compiled = template.compile_config(config)
        report = model.gate_power(compiled, stats, output_load)
        evaluations.append(ConfigEvaluation(config, report.total, report))
    return evaluations


def _extreme(
    template: GateTemplate,
    stats: Mapping[str, SignalStats],
    model: GatePowerModel,
    output_load: float,
    key: Callable[[ConfigEvaluation], tuple],
) -> ConfigEvaluation:
    evaluations = evaluate_configurations(template, stats, model, output_load)
    # Tie-break on the configuration key for run-to-run reproducibility.
    return min(evaluations, key=key)


def find_best_configuration(
    template: GateTemplate,
    stats: Mapping[str, SignalStats],
    model: GatePowerModel,
    output_load: float = 0.0,
) -> ConfigEvaluation:
    """The minimum-power ordering (FIND_BEST_REORDERING of Figure 3)."""
    return _extreme(
        template, stats, model, output_load, lambda e: (e.power, e.config.key())
    )


def find_worst_configuration(
    template: GateTemplate,
    stats: Mapping[str, SignalStats],
    model: GatePowerModel,
    output_load: float = 0.0,
) -> ConfigEvaluation:
    """The maximum-power ordering (the paper's pessimal reference)."""
    return _extreme(
        template, stats, model, output_load, lambda e: (-e.power, e.config.key())
    )
