"""Unit tests for the energy accounting (repro.sim.energy)."""

from __future__ import annotations

import pytest

from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.network.topology import WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.energy import EnergyModel, energy_of_broadcast


class TestEnergyModel:
    def test_defaults_are_positive_and_ordered(self):
        model = EnergyModel()
        assert model.tx_cost >= model.rx_cost > model.idle_cost

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_cost=-1)


class TestEnergyOfBroadcast:
    def test_figure1_accounting_by_hand(self, figure1):
        topo, source = figure1
        result = run_broadcast(topo, source, GreedyOptPolicy())
        model = EnergyModel(tx_cost=10.0, rx_cost=2.0, idle_cost=0.0)
        report = energy_of_broadcast(topo, result, model)
        # Transmitters: s, 1, 0, 4 -> 4 transmissions.
        assert report.transmissions == 4
        assert report.transmission_energy == pytest.approx(40.0)
        # Receptions: every neighbour of each transmitter hears it.
        expected_receptions = sum(
            topo.degree(u) for advance in result.advances for u in advance.color
        )
        assert report.receptions == expected_receptions
        assert report.total == pytest.approx(
            40.0 + expected_receptions * 2.0
        )

    def test_per_node_sums_to_total(self, small_deployment):
        topo, source = small_deployment
        result = run_broadcast(topo, source, EModelPolicy())
        report = energy_of_broadcast(topo, result)
        assert sum(report.per_node.values()) == pytest.approx(report.total)
        assert set(report.per_node) == set(topo.node_ids)

    def test_idle_energy_counts_window_slots(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = run_broadcast(
            topo, source, GreedyOptPolicy(), schedule=schedule, start_time=2
        )
        model = EnergyModel(tx_cost=0.0, rx_cost=0.0, idle_cost=1.0)
        report = energy_of_broadcast(topo, result, model)
        # Window is 3 slots and 5 nodes; every listening event replaces one
        # idle slot for that node.
        assert report.idle_slots == 3 * topo.num_nodes - report.receptions
        assert report.total == pytest.approx(report.idle_energy)

    def test_hottest_node_is_a_transmitter_or_busy_receiver(self, small_deployment):
        topo, source = small_deployment
        result = run_broadcast(topo, source, EModelPolicy())
        report = energy_of_broadcast(topo, result)
        node, energy = report.hottest_node()
        assert energy == max(report.per_node.values())
        assert node in topo.node_set

    def test_shorter_schedules_save_idle_energy(self, medium_deployment):
        """The pipeline's shorter broadcast window saves idle-listening energy
        network-wide, even though the minimal-parent-cover baseline may use
        slightly fewer transmissions."""
        from repro.baselines.approx26 import Approx26Policy

        topo, source = medium_deployment
        idle_only = EnergyModel(tx_cost=0.0, rx_cost=0.0, idle_cost=1.0)
        gopt_trace = run_broadcast(topo, source, GreedyOptPolicy())
        baseline_trace = run_broadcast(topo, source, Approx26Policy())
        gopt = energy_of_broadcast(topo, gopt_trace, idle_only)
        baseline = energy_of_broadcast(topo, baseline_trace, idle_only)
        assert gopt_trace.latency < baseline_trace.latency
        assert gopt.total < baseline.total
        assert gopt.transmissions > 0 and baseline.transmissions > 0

    def test_overhearing_charges_covered_neighbours(self):
        """Every neighbour of a transmitter pays rx, covered or not."""
        positions = {i: (float(i), 0.0) for i in range(3)}
        topo = WSNTopology.from_edges([(0, 1), (1, 2)], positions)
        result = run_broadcast(topo, 0, EModelPolicy())
        model = EnergyModel(tx_cost=0.0, rx_cost=5.0, idle_cost=0.0)
        report = energy_of_broadcast(topo, result, model)
        # Advances: {0}->{1}, then {1}->{2}; when 1 relays, the already
        # covered source 0 overhears and is charged one reception.
        assert report.receptions == 3
        assert report.per_node[0] == pytest.approx(5.0)  # pure overhearing
        assert report.per_node[1] == pytest.approx(5.0)
        assert report.per_node[2] == pytest.approx(5.0)

    def test_idle_window_edge_two_node_network(self):
        """One advance, window of one slot: exact per-term accounting."""
        topo = WSNTopology.from_edges([(0, 1)], {0: (0.0, 0.0), 1: (1.0, 0.0)})
        result = run_broadcast(topo, 0, EModelPolicy())
        assert result.latency == 1
        model = EnergyModel(tx_cost=20.0, rx_cost=15.0, idle_cost=1.0)
        report = energy_of_broadcast(topo, result, model)
        assert report.transmissions == 1
        assert report.receptions == 1
        # Node 1 listened during the only slot; node 0 idled through it.
        assert report.idle_slots == 1
        assert report.total == pytest.approx(20.0 + 15.0 + 1.0)

    def test_empty_window_has_zero_energy(self):
        """A single-node network broadcasts nothing and burns nothing."""
        topo = WSNTopology.from_positions([(0.0, 0.0)], radius=1.0)
        result = run_broadcast(topo, 0, EModelPolicy())
        assert result.latency == 0
        report = energy_of_broadcast(topo, result)
        assert report.transmissions == 0
        assert report.receptions == 0
        assert report.idle_slots == 0
        assert report.total == 0.0

    def test_zero_cost_model_identity(self, small_deployment):
        """The all-zero model reports zero energy whatever the trace does."""
        topo, source = small_deployment
        result = run_broadcast(topo, source, EModelPolicy())
        report = energy_of_broadcast(
            topo, result, EnergyModel(0.0, 0.0, 0.0, 0.0)
        )
        assert report.total == 0.0
        assert all(value == 0.0 for value in report.per_node.values())
        # The event counts still describe the trace.
        assert report.transmissions == result.total_transmissions

    def test_multisource_energy_uses_shared_window(self, small_deployment):
        """k messages share one idle window (the makespan), not k windows."""
        topo, source = small_deployment
        other = max(u for u in topo.node_ids if u != source)
        multi = run_broadcast(topo, [source, other], EModelPolicy())
        report = energy_of_broadcast(topo, multi)
        merged_transmissions = sum(len(a.color) for a in multi.advances)
        assert report.transmissions == merged_transmissions
        idle_only = energy_of_broadcast(
            topo, multi, EnergyModel(0.0, 0.0, 1.0, 1.0)
        )
        assert idle_only.idle_slots <= multi.latency * topo.num_nodes


class TestSweepEnergyColumns:
    def _config(self, **overrides) -> SweepConfig:
        base = dict(
            node_counts=(24,),
            repetitions=2,
            search=SearchConfig(mode="beam", beam_width=2),
            max_color_classes=4,
            source_min_ecc=2,
            source_max_ecc=None,
            area_side=22.0,
            radius=7.0,
        )
        base.update(overrides)
        return SweepConfig(**base)

    def test_every_record_carries_energy_columns(self):
        sweep = run_sweep(self._config(), system="sync")
        assert sweep.records
        for record in sweep.records:
            assert record.total_energy == pytest.approx(
                record.tx_energy + record.rx_energy + record.idle_energy
            )
            assert record.tx_energy > 0.0
            assert record.total_energy > 0.0

    def test_multisource_records_carry_energy_columns(self):
        sweep = run_sweep(
            self._config(n_sources=2, source_placement="spread"),
            system="duty",
            rate=6,
        )
        assert sweep.records
        for record in sweep.records:
            assert record.n_sources == 2
            assert record.total_energy == pytest.approx(
                record.tx_energy + record.rx_energy + record.idle_energy
            )
            assert record.mean_message_latency <= record.latency
            assert record.max_message_latency == record.latency
