"""Link models: the delivery semantics of the composable simulation core.

The engines in :mod:`repro.sim.engine` and :mod:`repro.sim.fast_engine`
share one broadcast kernel (per backend) parameterised by a
:class:`LinkModel` strategy.  The policy proposes an advance, the engine
validates it against the paper's network model, and the link model decides
which of the advance's intended receivers actually get the message:

* :class:`ReliableLinks` — every delivery succeeds (the paper's model);
* :class:`IndependentLossLinks` — each (transmitter, uncovered neighbour)
  delivery fails independently with probability ``p`` (the §VI robustness
  model): a receiver is covered iff at least one delivery it can hear
  succeeds.

Determinism contract
--------------------
A lossy run consumes exactly one uniform draw per *candidate pair* — a
``(transmitter, receiver)`` pair with the receiver an uncovered neighbour
of the transmitter — enumerated in ascending ``(transmitter id, receiver
id)`` order within each advance.  The reference engine's set-based
delivery (:meth:`LinkModel.deliver`, one scalar draw per pair) and the
vectorized engine's mask delivery (:meth:`LinkModel.deliver_mask`, one
block draw per advance) follow that exact order, and numpy's
``Generator.random(n)`` produces the same stream as ``n`` scalar
``Generator.random()`` calls, so the two backends produce **bit-identical
traces for the same (model, seed)**.  The scalar-draw ``deliver`` is kept
as the independent check of that contract: the parity suites compare the
two draws, not one draw with itself.  The experiment runner derives the
per-cell loss seed by splitting the cell seed on the ``"link-loss"`` path
(see :mod:`repro.experiments.runner`), which keeps sweep records
bit-identical for any worker count and either engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.advance import Advance
from repro.network.interference import neighborhood_mask
from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng
from repro.utils.validation import check_probability

__all__ = [
    "LinkModel",
    "ReliableLinks",
    "IndependentLossLinks",
    "LINK_MODELS",
    "link_model_names",
    "build_link_model",
]


class LinkModel(ABC):
    """Delivery semantics strategy shared by both engine backends.

    A link model is immutable configuration; any per-run randomness lives in
    the state object returned by :meth:`make_state`, which the engine
    creates once per simulated broadcast.  That keeps a single model
    instance reusable across runs (and across the policies of a sweep cell)
    with every run reproducing the same delivery pattern for the same seed.
    """

    #: Registry name (also recorded in sweep records).
    name: str = "link-model"

    #: True when every delivery succeeds.  The engines keep the original
    #: zero-overhead code path (no delivery step, no trace rewriting) for
    #: lossless models, so the reliable fast path is bit-for-bit the
    #: pre-refactor engine.
    lossless: bool = False

    #: Multiplier for the engines' *default* time limits (explicit
    #: ``max_time`` values are never stretched): lossy runs need roughly
    #: ``1 / (1 - p)`` attempts per delivery, so the reliable worst-case
    #: bound would trip prematurely at high loss rates.
    limit_stretch: float = 1.0

    def make_state(self) -> object | None:
        """Per-run delivery state (e.g. a seeded RNG); ``None`` if stateless."""
        return None

    @abstractmethod
    def deliver(
        self,
        state: object | None,
        topology: WSNTopology,
        advance: Advance,
        covered: frozenset[int],
    ) -> frozenset[int]:
        """The subset of ``advance.receivers`` actually delivered (set-based)."""

    @abstractmethod
    def deliver_mask(
        self,
        state: object | None,
        topology: WSNTopology,
        color_mask: int,
        covered_mask: int,
    ) -> int:
        """The delivered receivers of the colour ``color_mask`` as a bitmask.

        The mask twin of :meth:`deliver`: ``color_mask`` is the advance's
        transmitters and ``covered_mask`` is ``W``, both in the topology's
        bit order.  Must consume randomness identically to :meth:`deliver`
        so the two backends stay bit-identical for the same
        ``(model, seed)``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ReliableLinks(LinkModel):
    """The paper's model: every scheduled delivery succeeds."""

    name = "reliable"
    lossless = True
    loss_probability = 0.0

    def deliver(self, state, topology, advance, covered):
        return advance.receivers

    def deliver_mask(self, state, topology, color_mask, covered_mask):
        return neighborhood_mask(topology, color_mask) & ~covered_mask


class IndependentLossLinks(LinkModel):
    """Independent per-link delivery failures with probability ``p`` (§VI).

    Each candidate pair — a transmitter of the advance and one of its
    uncovered neighbours — fails independently with probability
    ``loss_probability``; a receiver covered by several same-round
    transmitters receives the message iff at least one of those deliveries
    succeeds.  ``loss_probability=0.0`` is declared lossless, so it takes
    the reliable engines' unmodified code path and produces a trace *equal*
    to :class:`ReliableLinks` (the identity the test suite pins down).
    """

    name = "independent-loss"

    def __init__(self, loss_probability: float, *, seed: int | None = 0) -> None:
        check_probability("loss_probability", loss_probability)
        self.loss_probability = loss_probability
        self.seed = seed
        self.lossless = loss_probability == 0.0
        self.limit_stretch = 1.0 / max(1.0 - loss_probability, 0.05)

    def make_state(self) -> np.random.Generator:
        return make_rng(self.seed)

    def deliver(self, state, topology, advance, covered):
        rng = state
        p = self.loss_probability
        delivered: set[int] = set()
        # Canonical draw order: ascending (transmitter id, receiver id).
        # Every candidate pair consumes a draw — no short-circuit for
        # receivers already delivered this round — so the mask
        # implementation can consume the stream as one vectorized block.
        for transmitter in sorted(advance.color):
            for receiver in sorted(topology.neighbors(transmitter)):
                if receiver in covered:
                    continue
                if rng.random() >= p:
                    delivered.add(receiver)
        return frozenset(delivered)

    def deliver_mask(self, state, topology, color_mask, covered_mask):
        rng = state
        # Transmitter rows ascend (node-id order) and boolean indexing walks
        # the candidate matrix row-major, so draw ``k`` decides the ``k``-th
        # pair in the canonical (transmitter id, receiver id) order of
        # ``deliver``; a receiver is delivered if any of its pairs succeeds.
        rows = np.flatnonzero(topology.bool_from_mask(color_mask))
        candidates = topology.adjacency_matrix[rows] & ~topology.bool_from_mask(covered_mask)
        draws = rng.random(np.count_nonzero(candidates))
        candidates[candidates] = draws >= self.loss_probability
        return topology.mask_from_bool(candidates.any(axis=0))


#: Registry of link models selectable by name (``SweepConfig.link_model``,
#: the CLI's ``--link-model``): ``name -> factory(loss_probability, seed)``.
LINK_MODELS = {
    ReliableLinks.name: lambda loss_probability, seed: ReliableLinks(),
    IndependentLossLinks.name: lambda loss_probability, seed: IndependentLossLinks(
        loss_probability, seed=seed
    ),
}


def link_model_names() -> list[str]:
    """The registered link-model names, sorted."""
    return sorted(LINK_MODELS)


def build_link_model(
    name: str, *, loss_probability: float = 0.0, seed: int | None = 0
) -> LinkModel:
    """Instantiate a registered link model by name.

    ``"reliable"`` ignores both parameters; ``"independent-loss"`` uses
    them as the per-link failure probability and the RNG seed of the
    dedicated loss stream.
    """
    try:
        factory = LINK_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown link model {name!r}; expected one of {link_model_names()}"
        ) from None
    return factory(loss_probability, seed)
