"""Import hygiene: a sweep loads only the code it runs.

The packages resolve their re-exported names on first access
(:mod:`repro.utils.lazy`), the runner, store and lease queue load the
telemetry event classes on first emission, and the CLI loads each
target's modules when that target runs.  Every check imports in a fresh
interpreter, so the test process's own imports hide nothing.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro
from tests.fresh_interpreter import modules_loaded_by, run_python

#: Modules a telemetry-off sweep never runs.
_NOT_ON_THE_SWEEP_PATH = (
    "repro.experiments.figures",
    "repro.experiments.tables",
    "repro.experiments.report",
    "repro.solvers.ilp",
    "repro.solvers.bruteforce",
    "repro.obs.events",
    "repro.obs.monitor",
    "repro.obs.sinks",
    "repro.obs.metrics",
    "repro.sim.render",
    "repro.fabric.server",
    "repro.fabric.transport",
    "repro.fabric.worker",
    "multiprocessing",
)

_PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_sweep_imports_load_no_unused_module():
    loaded = modules_loaded_by(
        "import repro.core.bounds, repro.experiments.config, "
        "repro.experiments.runner, repro.store"
    )
    assert loaded.isdisjoint(_NOT_ON_THE_SWEEP_PATH), sorted(
        loaded.intersection(_NOT_ON_THE_SWEEP_PATH)
    )


def test_cli_sweep_loads_no_network_stack():
    result = run_python(
        "-X", "importtime", "-m", "repro.experiments", "sweep", "--nodes", "50",
        "--repetitions", "1",
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.experiments.runner" in imported  # the trace covers the sweep
    assert imported.isdisjoint({"asyncio", "http.client"})


@pytest.mark.parametrize("package", _PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    code = (
        f"import {package} as package\n"
        "names = list(package.__all__)\n"
        "assert len(names) == len(set(names)), names\n"
        "missing = [n for n in names if n not in dir(package)]\n"
        "assert not missing, missing\n"
        "for name in names:\n"
        "    getattr(package, name)\n"
    )
    run_python("-c", code)


def test_star_import_and_subpackage_attributes():
    code = (
        "from repro import *\n"
        "import repro\n"
        "assert run_broadcast is repro.sim.run_broadcast\n"
        "assert repro.experiments.runner.run_sweep is repro.experiments.run_sweep\n"
        "assert repro.scenarios.scenario_names()\n"
    )
    run_python("-c", code)


class TestLazyNamespace:
    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            getattr(repro.sim, "nonexistent")
        assert not hasattr(repro, "__wrapped__")
        # A dunder never falls back to a submodule: this one runs the CLI.
        assert not hasattr(repro.experiments, "__main__")

    def test_resolved_names_are_cached_on_the_package(self):
        import repro.baselines

        policy = repro.baselines.Approx17Policy
        assert vars(repro.baselines)["Approx17Policy"] is policy
