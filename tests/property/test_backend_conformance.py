"""Backend conformance: every registered engine × link model vs the oracle.

Engine parity is a *conformance contract*: for every entry of
:data:`repro.sim.ENGINE_BACKENDS` and every entry of
:data:`repro.sim.links.LINK_MODELS`, ``run_broadcast`` must return a trace
equal to the reference engines' for the same inputs, across the full
deployment-scenario × duty-model × loss matrix, for the E-model and for
the rest of the paper line-up a sweep runs.  The fixtures live in
``conftest.py`` and are parameterized over the registries themselves, so a
newly registered backend or link model is enrolled automatically — there
is no name list here to forget to extend.

The full matrices carry the ``slow_property`` marker: they always run in
the default suite, and CI's backend fast-path job selects them with
``-m slow_property`` to re-check conformance alone when engine or kernel
code changes.
"""

from __future__ import annotations

import pytest

from repro.core.policies import EModelPolicy
from repro.dutycycle.models import build_wakeup_schedule, duty_model_names
from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies
from repro.network.deployment import DeploymentConfig
from repro.scenarios import generate_scenario, scenario_names
from repro.sim.broadcast import run_broadcast
from repro.sim.links import LINK_MODELS
from repro.sim.validation import validate_broadcast

from .conftest import conformance_link_model

#: One compact deployment per scenario: large enough for multi-hop traces
#: and real interference, small enough that the full matrix stays fast.
_DEPLOY = DeploymentConfig(
    num_nodes=20,
    area_side=22.0,
    radius=8.0,
    source_min_ecc=2,
    source_max_ecc=None,
)


def _run_matrix_cell(
    engine, link_name, scenario, duty_model, *, seed, make_policy=EModelPolicy
):
    """One conformance comparison: ``engine`` vs the reference oracle.

    ``make_policy`` builds a fresh policy per run (policies are stateful).
    Returns the reference trace so callers can pile on extra invariants.
    """
    deployment = generate_scenario(scenario, _DEPLOY, seed=seed)
    topology, source = deployment.topology, deployment.source
    schedule = None
    if duty_model is not None:
        schedule = build_wakeup_schedule(
            topology.node_ids,
            rate=5,
            seed=seed + 1,
            model=duty_model,
            model_seed=seed + 2,
        )
    kwargs = dict(schedule=schedule, align_start=schedule is not None)
    reference = run_broadcast(
        topology,
        source,
        make_policy(),
        engine="reference",
        link_model=conformance_link_model(link_name, seed=seed),
        **kwargs,
    )
    checked = run_broadcast(
        topology,
        source,
        make_policy(),
        engine=engine,
        link_model=conformance_link_model(link_name, seed=seed),
        **kwargs,
    )
    assert checked == reference, (
        f"backend {engine!r} diverged from the reference oracle "
        f"(scenario={scenario}, duty_model={duty_model}, link={link_name}, "
        f"policy={make_policy!r})"
    )
    return reference


@pytest.mark.slow_property
@pytest.mark.parametrize("scenario", scenario_names())
def test_sync_matrix_matches_reference(engine_backend, link_model_name, scenario):
    """Round-based system: every backend × link model × scenario."""
    _run_matrix_cell(engine_backend, link_model_name, scenario, None, seed=101)


@pytest.mark.slow_property
@pytest.mark.parametrize("duty_model", duty_model_names())
@pytest.mark.parametrize("scenario", scenario_names())
def test_duty_matrix_matches_reference(
    engine_backend, link_model_name, scenario, duty_model
):
    """Duty-cycle system: every backend × link model × scenario × duty model."""
    _run_matrix_cell(engine_backend, link_model_name, scenario, duty_model, seed=202)


def _line_up_params(system):
    """(link model, policy) pairs of a sweep's line-up, minus the E-model.

    Read from :func:`default_policies` per link model, so the matrix below
    checks exactly what a sweep runs: the planned baselines only on the
    reliable model, where the sweep line-up keeps them.  The E-model is
    left out because the matrices above already cover it.
    """
    params = []
    for link_name in sorted(LINK_MODELS):
        line_up = default_policies(SweepConfig(link_model=link_name), system)
        for name, factory in line_up.items():
            if name != "E-model":
                params.append(pytest.param(link_name, factory, id=f"{link_name}-{name}"))
    return params


@pytest.mark.slow_property
@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize(("link_name", "make_policy"), _line_up_params("sync"))
def test_sync_line_up_matches_reference(fast_backend, link_name, make_policy, scenario):
    """Round-based line-up (26-approx, OPT, G-OPT): fast backend == oracle."""
    _run_matrix_cell(
        fast_backend, link_name, scenario, None, seed=303, make_policy=make_policy
    )


@pytest.mark.slow_property
@pytest.mark.parametrize("duty_model", duty_model_names())
@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize(("link_name", "make_policy"), _line_up_params("duty"))
def test_duty_line_up_matches_reference(
    fast_backend, link_name, make_policy, scenario, duty_model
):
    """Duty-cycle line-up (17-approx, OPT, G-OPT): fast backend == oracle."""
    _run_matrix_cell(
        fast_backend, link_name, scenario, duty_model, seed=404, make_policy=make_policy
    )


def test_conformance_smoke(engine_backend, link_model_name):
    """Unmarked fast subset: uniform scenario, both systems, one seed each.

    This keeps a conformance signal in every plain ``pytest`` run even when
    the slow matrices are deselected.
    """
    _run_matrix_cell(engine_backend, link_model_name, "uniform", None, seed=7)
    _run_matrix_cell(engine_backend, link_model_name, "uniform", "uniform", seed=7)


def test_reference_matrix_traces_validate(link_model_name):
    """The oracle's own traces pass the validator on a matrix sample.

    Conformance equality is only meaningful if the reference side is itself
    clean; this pins the validator agreement for both link models.
    """
    deployment = generate_scenario("clustered", _DEPLOY, seed=11)
    topology, source = deployment.topology, deployment.source
    schedule = build_wakeup_schedule(topology.node_ids, rate=4, seed=12)
    link = conformance_link_model(link_model_name, seed=13)
    trace = run_broadcast(
        topology,
        source,
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        engine="reference",
        link_model=link,
    )
    lossy = not link.lossless
    for backend in ("reference", "vectorized"):
        assert (
            validate_broadcast(
                topology, trace, schedule=schedule, backend=backend, lossy=lossy
            )
            == []
        )
