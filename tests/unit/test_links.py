"""Unit tests for the link-model strategy layer (repro.sim.links)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import EModelPolicy
from repro.network.bitset import bitset_view
from repro.sim.broadcast import run_broadcast
from repro.sim.links import (
    LINK_MODELS,
    IndependentLossLinks,
    ReliableLinks,
    build_link_model,
    link_model_names,
)


class TestRegistry:
    def test_names_and_build(self):
        assert link_model_names() == ["independent-loss", "reliable"]
        assert set(LINK_MODELS) == {"reliable", "independent-loss"}
        reliable = build_link_model("reliable")
        assert isinstance(reliable, ReliableLinks) and reliable.lossless
        lossy = build_link_model("independent-loss", loss_probability=0.25, seed=7)
        assert isinstance(lossy, IndependentLossLinks)
        assert lossy.loss_probability == 0.25 and lossy.seed == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown link model"):
            build_link_model("carrier-pigeon")

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            IndependentLossLinks(1.5)
        with pytest.raises(ValueError):
            build_link_model("independent-loss", loss_probability=-0.1)


class TestModelProperties:
    def test_zero_loss_is_lossless_with_unit_stretch(self):
        model = IndependentLossLinks(0.0, seed=3)
        assert model.lossless
        assert model.limit_stretch == 1.0

    def test_limit_stretch_grows_with_loss(self):
        assert IndependentLossLinks(0.5).limit_stretch == pytest.approx(2.0)
        # Clamped near p=1 so the limit stays finite.
        assert IndependentLossLinks(0.99).limit_stretch == pytest.approx(20.0)

    def test_reliable_deliver_is_identity(self, line_topology):
        from repro.core.advance import Advance

        model = ReliableLinks()
        advance = Advance(time=1, color=frozenset({0}), receivers=frozenset({1}))
        assert model.deliver(None, line_topology, advance, frozenset({0})) == (
            frozenset({1})
        )
        view = bitset_view(line_topology)
        expected = view.bool_from_nodes({1})
        out = model.deliver_bool(
            None, view, view.indices({0}), expected, view.bool_from_nodes({0})
        )
        assert out is expected


class TestDrawOrderParity:
    def test_set_and_bitset_deliveries_consume_the_same_stream(self, small_grid):
        """Both implementations draw per candidate pair in the same order."""
        from repro.core.advance import Advance
        from repro.network.interference import receivers_of

        topology = small_grid
        covered = frozenset({topology.node_ids[0]})
        color = frozenset({topology.node_ids[0]})
        expected = receivers_of(topology, color, covered)
        advance = Advance(time=1, color=color, receivers=expected)
        model = IndependentLossLinks(0.5, seed=123)

        set_delivered = model.deliver(model.make_state(), topology, advance, covered)
        view = bitset_view(topology)
        delivered_bool = model.deliver_bool(
            model.make_state(),
            view,
            view.indices(color),
            view.bool_from_nodes(expected),
            view.bool_from_nodes(covered),
        )
        assert view.nodes_from_bool(delivered_bool) == set_delivered
        assert set_delivered <= expected

    def test_delivery_candidates_canonical_order(self, small_grid):
        view = bitset_view(small_grid)
        covered = view.bool_from_nodes({small_grid.node_ids[0]})
        tx_idx = view.indices(set(small_grid.node_ids[:3]))
        rows, cols = view.delivery_candidates(tx_idx, covered)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert pairs == sorted(pairs)
        # Every pair is a genuine uncovered-neighbour edge.
        for row, col in pairs:
            assert view.adjacency[tx_idx[row], col]
            assert not covered[col]

    def test_empty_transmitter_set(self, small_grid):
        view = bitset_view(small_grid)
        rows, cols = view.delivery_candidates(
            np.zeros(0, dtype=np.int64), np.zeros(view.num_nodes, dtype=bool)
        )
        assert len(rows) == 0 and len(cols) == 0


class TestLossIntolerantPolicies:
    def test_planned_baselines_rejected_on_lossy_links(self, small_deployment):
        topo, source = small_deployment
        for policy in (Approx26Policy(), Approx17Policy()):
            with pytest.raises(ValueError, match="cannot run over lossy links"):
                run_broadcast(
                    topo,
                    source,
                    policy,
                    link_model=IndependentLossLinks(0.2, seed=1),
                )

    def test_planned_baselines_fine_on_zero_loss(self, small_deployment):
        topo, source = small_deployment
        trace = run_broadcast(
            topo, source, Approx26Policy(), link_model=IndependentLossLinks(0.0)
        )
        assert trace.covered == topo.node_set


class TestLossyTraceContents:
    def test_intended_receivers_recorded(self, small_deployment):
        topo, source = small_deployment
        trace = run_broadcast(
            topo,
            source,
            EModelPolicy(),
            link_model=IndependentLossLinks(0.3, seed=7),
        )
        assert all(a.intended_receivers is not None for a in trace.advances)
        for advance in trace.advances:
            assert advance.receivers <= advance.intended
            assert advance.failed_deliveries == len(advance.intended) - len(
                advance.receivers
            )
        assert trace.failed_deliveries == sum(
            a.failed_deliveries for a in trace.advances
        )

    def test_retransmissions_property(self, small_deployment):
        topo, source = small_deployment
        reliable = run_broadcast(topo, source, EModelPolicy())
        assert reliable.retransmissions == 0
        lossy = run_broadcast(
            topo,
            source,
            EModelPolicy(),
            link_model=IndependentLossLinks(0.4, seed=11),
        )
        counts = lossy.transmissions_by_node()
        assert lossy.retransmissions == sum(c - 1 for c in counts.values() if c > 1)
        assert lossy.retransmissions > 0
