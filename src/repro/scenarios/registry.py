"""Registry of named, seeded deployment scenarios.

The paper evaluates its schedulers on a single workload: uniform random
unit-disc deployments over a square area (Section V-A).  Broadcast latency
is a wavefront-propagation phenomenon, so its behaviour is highly
topology-dependent — a corridor stretches the wavefront into a line, a ring
splits it into two fronts, clusters funnel it through sparse bridges.  The
scenario registry opens those workloads without touching any engine: every
scenario produces a standard :class:`~repro.network.deployment.Deployment`
(topology + source), so the reference, vectorized and lossy simulators all
run unchanged.

Contract
--------
A scenario is a *builder* ``(config, rng, **params) -> WSNTopology`` that
makes **one attempt** at generating a topology from the shared
:class:`~repro.network.deployment.DeploymentConfig` geometry.  The registry
wraps the builder in the same rejection loop the paper's generator uses:
re-sample until the topology is connected and a source with an eligible
eccentricity exists.  All randomness flows through the single
``numpy.random.Generator`` handed to the builder, which gives the
determinism guarantee the sweep runner relies on:

* ``generate_scenario(name, config, seed=s)`` is a pure function of
  ``(name, config, params, s)`` — bit-identical positions, adjacency and
  source on every call, in every process.

Each scenario declares its own source-eccentricity window because the
paper's 5–8-hop window is tuned to uniform deployments; a clustered or ring
topology compresses hop counts and would reject forever under it.  Callers
can still override the window per call via ``source_min_ecc`` /
``source_max_ecc`` in ``params``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.network.deployment import (
    Deployment,
    DeploymentConfig,
    _vetted_deployment,
)
from repro.network.topology import WSNTopology
from repro.utils.rng import make_rng

__all__ = [
    "ScenarioSpec",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "generate_scenario",
]

#: Builder signature: one generation attempt (no retry logic inside).
ScenarioBuilder = Callable[..., WSNTopology]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named deployment scenario.

    Attributes
    ----------
    name:
        Registry key (also the CLI ``--scenario`` value).
    summary:
        One-line description shown by ``--list-scenarios`` and the docs.
    builder:
        One-attempt topology builder ``(config, rng, **params)``.
    defaults:
        Default keyword parameters of the builder (documented per scenario
        in ``docs/scenarios.md``).
    source_min_ecc, source_max_ecc:
        The scenario's source-eligibility window (hop distance to the
        farthest node); ``source_max_ecc=None`` means unbounded.
    inherit_config_window:
        When True the scenario uses the :class:`DeploymentConfig` window
        instead of its own (the ``uniform`` scenario does this, keeping the
        paper's 5–8-hop source selection).
    """

    name: str
    summary: str
    builder: ScenarioBuilder
    defaults: Mapping[str, object] = field(default_factory=dict)
    source_min_ecc: int = 1
    source_max_ecc: int | None = None
    inherit_config_window: bool = False


#: The global scenario registry, keyed by scenario name.
SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to :data:`SCENARIOS` (refusing duplicate names)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name, with a helpful error on typos."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: {scenario_names()}"
        ) from None


def scenario_names() -> list[str]:
    """The registered scenario names, sorted."""
    return sorted(SCENARIOS)


def list_scenarios() -> list[ScenarioSpec]:
    """All registered scenario specs, sorted by name."""
    return [SCENARIOS[name] for name in scenario_names()]


#: Sentinel distinguishing "not passed" from an explicit ``None`` override.
_UNSET = object()


def _source_window(
    spec: ScenarioSpec, config: DeploymentConfig, params: dict[str, object]
) -> tuple[int, int | None]:
    """Resolve the effective source-eccentricity window for this call."""
    if spec.inherit_config_window:
        default_min, default_max = config.source_min_ecc, config.source_max_ecc
    else:
        default_min, default_max = spec.source_min_ecc, spec.source_max_ecc
    min_ecc = params.pop("source_min_ecc", _UNSET)
    max_ecc = params.pop("source_max_ecc", _UNSET)
    if min_ecc is _UNSET:
        min_ecc = default_min
    if max_ecc is _UNSET:
        max_ecc = default_max
    return int(min_ecc), max_ecc  # type: ignore[arg-type]


def generate_scenario(
    name: str,
    config: DeploymentConfig | None = None,
    *,
    num_nodes: int | None = None,
    seed: int | None = None,
    **params: object,
) -> Deployment:
    """Generate a connected deployment from the named scenario.

    Parameters
    ----------
    name:
        A registered scenario name (see :func:`scenario_names`).
    config:
        Shared deployment geometry (node count, area side, radius, retry
        budget).  ``num_nodes`` is a shorthand for
        ``DeploymentConfig(num_nodes=...)`` with paper defaults.
    seed:
        Seed for the scenario's private RNG stream.  Fixing it makes the
        returned deployment bit-identical across calls and processes.
    params:
        Scenario-specific overrides (cluster count, corridor width, ...);
        see each scenario's ``defaults``.  ``source_min_ecc`` /
        ``source_max_ecc`` override the scenario's source window.

    Raises
    ------
    DeploymentError
        If no connected topology with an eligible source is produced within
        ``config.max_attempts`` attempts.
    """
    spec = get_scenario(name)
    if config is None:
        if num_nodes is None:
            raise ValueError("either num_nodes or config must be provided")
        config = DeploymentConfig(num_nodes=num_nodes)

    merged: dict[str, object] = {**spec.defaults, **params}
    min_ecc, max_ecc = _source_window(spec, config, merged)
    unknown = set(merged) - set(spec.defaults)
    if unknown:
        raise TypeError(
            f"scenario {name!r} got unknown parameters {sorted(unknown)}; "
            f"accepted: {sorted(spec.defaults)}"
        )

    rng = make_rng(seed)
    effective = dataclasses.replace(
        config, source_min_ecc=min_ecc, source_max_ecc=max_ecc
    )
    return _vetted_deployment(
        effective,
        rng,
        lambda: spec.builder(config, rng, **merged),
        scenario=name,
        failed=f"scenario {name!r} failed",
        advice="relaxing the parameters or raising the density",
    )
