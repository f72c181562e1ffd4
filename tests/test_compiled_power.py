"""Bit-identity of the compiled power kernel (`repro.compiled.power`).

The contract under test: class-batched `price_configurations` pricing
of each gate's current configuration — per-minterm weights,
steady-state guards, per-pin transition folds, node capacitances and
gate totals — is **bit-identical** (exact float equality, every
`NodePowerEntry` field) to the per-gate object path of
`GatePowerModel`, for all three formulas, under random edit sequences,
and through the `StatsCache` power refresh it backs on the compiled
engine.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_logic
from repro.compiled.circuit import get_compiled
from repro.compiled.power import power_class, price_gates
from repro.core.power_model import FORMULAS, GatePowerModel
from repro.gates.capacitance import net_load
from repro.incremental import StatsCache
from repro.sim.stimulus import ScenarioA
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit

PO_LOAD = 10.0e-15


@pytest.fixture(scope="module")
def wide():
    circuit = map_circuit(random_logic(12, 60, seed=9))
    stats = ScenarioA(seed=2).input_stats(circuit.inputs)
    return circuit, stats


def object_reports(circuit, model, stats, po_load):
    index = circuit.fanout_index()
    outputs = frozenset(circuit.outputs)
    reports = {}
    for gate in circuit.gates:
        pin_stats = {pin: stats[gate.pin_nets[pin]]
                     for pin in gate.template.pins}
        load = net_load(index.sinks(gate.output), gate.output in outputs,
                        model.tech, po_load)
        reports[gate.name] = model.gate_power(gate.compiled(), pin_stats,
                                              load)
    return reports


def kernel_reports(circuit, model, stats, po_load):
    """Every gate's current configuration priced in one batched call,
    loads from the compiled circuit — the StatsCache refresh route."""
    gates = circuit.gates
    prices = price_gates(model, get_compiled(circuit), gates, stats, po_load)
    return prices, {g.name: prices.report(i, 0)
                    for i, g in enumerate(gates)}


def assert_reports_equal(kernel_reports, reference):
    assert set(kernel_reports) == set(reference)
    for name, report in reference.items():
        batched = kernel_reports[name]
        assert batched.tech == report.tech
        assert len(batched.entries) == len(report.entries)
        for got, want in zip(batched.entries, report.entries):
            assert got.node == want.node
            assert got.capacitance == want.capacitance
            assert got.probability == want.probability
            assert got.transitions == want.transitions
            assert got.power == want.power
        assert batched.total == report.total


def edit_specs():
    return st.tuples(
        st.sampled_from(["reorder", "retemplate", "input-stats"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, input_stats, spec):
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates
                 if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configurations = gate.template.configurations()
        circuit.set_config(gate.name,
                           configurations[value % len(configurations)])
    elif kind == "retemplate":
        groups = {}
        for template in circuit.library:
            groups.setdefault(template.pins, []).append(template.name)
        gates = [g for g in circuit.gates
                 if len(groups[g.template.pins]) > 1]
        gate = gates[selector % len(gates)]
        others = [name for name in groups[gate.template.pins]
                  if name != gate.template.name]
        circuit.set_template(gate.name, others[value % len(others)])
    else:
        net = circuit.inputs[selector % len(circuit.inputs)]
        probability = 0.05 + 0.9 * ((value % 97) / 96.0)
        density = 1.0e4 * (1 + value % 89)
        input_stats[net] = SignalStats(probability, density)


# ----------------------------------------------------------------------
# The kernel against the object model
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_reports_bit_identical_all_formulas(self, wide, formula):
        circuit, input_stats = wide
        work = circuit.copy()
        model = GatePowerModel(formula=formula)
        from repro.stochastic.density import local_stats

        stats = local_stats(work, input_stats)
        _, reports = kernel_reports(work, model, stats, PO_LOAD)
        assert_reports_equal(reports,
                             object_reports(work, model, stats, PO_LOAD))

    def test_gate_totals_match_reports(self, wide):
        circuit, input_stats = wide
        work = circuit.copy()
        model = GatePowerModel()
        from repro.stochastic.density import local_stats

        stats = local_stats(work, input_stats)
        prices, reports = kernel_reports(work, model, stats, PO_LOAD)
        assert len(prices.totals) == len(work.gates)
        for gate, row in zip(work.gates, prices.totals):
            assert row == [reports[gate.name].total]

    @settings(max_examples=15, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=6))
    def test_reports_track_random_edits(self, wide, specs):
        circuit_master, stats_master = wide
        circuit = circuit_master.copy()
        input_stats = dict(stats_master)
        model = GatePowerModel()
        get_compiled(circuit)  # lowered once, kept current by edits
        from repro.stochastic.density import local_stats

        for spec in specs:
            apply_spec(circuit, input_stats, spec)
            stats = local_stats(circuit, input_stats)
            _, reports = kernel_reports(circuit, model, stats, PO_LOAD)
            assert_reports_equal(
                reports, object_reports(circuit, model, stats, PO_LOAD))


# ----------------------------------------------------------------------
# The StatsCache power refresh it backs
# ----------------------------------------------------------------------
class TestCacheIntegration:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_cache_power_bit_identical(self, wide, object_engine, formula):
        circuit, stats = wide
        ref_circuit, flat_circuit = circuit.copy(), circuit.copy()
        model = GatePowerModel(formula=formula)
        with object_engine():
            ref = StatsCache(ref_circuit, stats, model=model)
        flat = StatsCache(flat_circuit, stats, model=model)
        try:
            assert flat.compiled_power and not ref.compiled_power
            assert flat.total_power() == ref.total_power()
            report = flat.power()
            assert_reports_equal(report.by_gate, ref.power().by_gate)
        finally:
            flat.close()
            ref.close()

    # object_engine is a per-example block, safe across examples.
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(edit_specs(), min_size=1, max_size=6))
    def test_cache_power_tracks_random_edits(self, wide, object_engine,
                                             specs):
        circuit_master, stats_master = wide
        ref_circuit = circuit_master.copy()
        flat_circuit = circuit_master.copy()
        ref_stats, flat_stats = dict(stats_master), dict(stats_master)
        with object_engine():
            ref = StatsCache(ref_circuit, ref_stats)
        flat = StatsCache(flat_circuit, flat_stats)
        try:
            for spec in specs:
                apply_spec(ref_circuit, ref_stats, spec)
                apply_spec(flat_circuit, flat_stats, spec)
                if spec[0] == "input-stats":
                    net = ref_circuit.inputs[spec[1] % len(ref_circuit.inputs)]
                    ref.set_input_stats(net, ref_stats[net])
                    flat.set_input_stats(net, flat_stats[net])
                assert flat.total_power() == ref.total_power()
                assert_reports_equal(flat.power().by_gate,
                                     ref.power().by_gate)
        finally:
            flat.close()
            ref.close()

    def test_power_classes_are_shared_process_wide(self, wide):
        circuit, stats = wide
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            cache.total_power()
            for gate in work.gates:
                compiled = gate.template.compile_config(gate.config)
                assert power_class(compiled) is power_class(gate.compiled())
