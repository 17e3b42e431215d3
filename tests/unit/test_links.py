"""Unit tests for the link-model strategy layer (repro.sim.links)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.advance import Advance
from repro.core.policies import EModelPolicy
from repro.network.interference import receivers_of
from repro.sim.broadcast import run_broadcast
from repro.sim.links import (
    LINK_MODELS,
    IndependentLossLinks,
    ReliableLinks,
    build_link_model,
    link_model_names,
)
from repro.utils.rng import make_rng


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
        model = ReliableLinks()
        advance = Advance(time=1, color=frozenset({0}), receivers=frozenset({1}))
        assert model.deliver(None, line_topology, advance, frozenset({0})) == (
            frozenset({1})
        )
        mask = line_topology.mask_from_nodes
        assert model.deliver_mask(None, line_topology, mask({0}), mask({0})) == mask({1})

    def test_reliable_deliver_mask_is_every_uncovered_neighbour(self, small_grid):
        """``ReliableLinks.deliver_mask`` is ``N(C) & ~W``."""
        model = ReliableLinks()
        for color, covered in _random_pairs(small_grid, seed=4, count=30):
            expected = receivers_of(small_grid, color, covered)
            delivered = model.deliver_mask(
                None,
                small_grid,
                small_grid.mask_from_nodes(color),
                small_grid.mask_from_nodes(covered),
            )
            assert small_grid.nodes_from_mask(delivered) == expected


def _random_pairs(topology, seed: int, count: int):
    """``count`` random ``(colour, covered)`` pairs, the colour inside ``W``."""
    rng = make_rng(seed)
    ids = list(topology.node_ids)
    for _ in range(count):
        covered = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
        color = rng.choice(covered, size=int(rng.integers(1, len(covered) + 1)), replace=False)
        yield frozenset(color.tolist()), frozenset(covered.tolist())


class _ScriptedDraws:
    """A stand-in RNG whose block draw succeeds only at position ``hit``."""

    def __init__(self, hit: int) -> None:
        self.hit = hit
        self.sizes: list[int] = []

    def random(self, size: int) -> np.ndarray:
        self.sizes.append(size)
        draws = np.zeros(size)
        draws[self.hit] = 0.99
        return draws


class TestDrawOrderParity:
    @pytest.mark.parametrize("loss", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("fixture", ["small_grid", "small_deployment"])
    def test_set_and_mask_deliveries_consume_the_same_stream(self, fixture, seed, loss, request):
        """Both implementations draw per candidate pair in the same order:
        over many ``(colour, covered)`` pairs they deliver the same nodes and
        leave their RNGs in the same state."""
        topology = request.getfixturevalue(fixture)
        if fixture == "small_deployment":
            topology = topology[0]
        model = IndependentLossLinks(loss, seed=seed)
        set_rng, mask_rng = model.make_state(), model.make_state()
        for color, covered in _random_pairs(topology, seed=seed + 1, count=30):
            expected = receivers_of(topology, color, covered)
            advance = Advance(time=1, color=color, receivers=expected)
            set_delivered = model.deliver(set_rng, topology, advance, covered)
            mask_delivered = model.deliver_mask(
                mask_rng,
                topology,
                topology.mask_from_nodes(color),
                topology.mask_from_nodes(covered),
            )
            assert topology.nodes_from_mask(mask_delivered) == set_delivered
            assert set_delivered <= expected
            assert set_rng.random() == mask_rng.random()

    def test_deliver_mask_canonical_order(self, small_grid):
        """Draw ``k`` of the block decides the ``k``-th candidate pair in
        ascending ``(transmitter id, receiver id)`` order."""
        covered = frozenset(small_grid.node_ids[:4])
        color = frozenset(small_grid.node_ids[:3])
        pairs = [
            (u, v)
            for u in sorted(color)
            for v in sorted(small_grid.neighbors(u))
            if v not in covered
        ]
        assert len(pairs) > 1
        model = IndependentLossLinks(0.5)
        for hit, (_, receiver) in enumerate(pairs):
            draws = _ScriptedDraws(hit)
            delivered = model.deliver_mask(
                draws,
                small_grid,
                small_grid.mask_from_nodes(color),
                small_grid.mask_from_nodes(covered),
            )
            assert draws.sizes == [len(pairs)]
            assert small_grid.nodes_from_mask(delivered) == {receiver}

    def test_empty_colour_draws_nothing(self, small_grid):
        model = IndependentLossLinks(0.5, seed=9)
        rng, untouched = model.make_state(), model.make_state()
        assert model.deliver_mask(rng, small_grid, 0, small_grid.full_mask >> 3) == 0
        assert rng.random() == untouched.random()


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
