"""WSN topology substrate: unit-disc graphs, deployments, quadrants, boundary."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.network.boundary": ("boundary_nodes",),
        "repro.network.deployment": ("Deployment", "DeploymentConfig", "deploy_uniform"),
        "repro.network.graphs": ("figure1_topology", "figure2_duty_schedule", "figure2_topology"),
        "repro.network.interference": (
            "conflict_free",
            "conflicting_pairs",
            "has_conflict",
            "receivers_of",
        ),
        "repro.network.quadrant": ("QUADRANTS",),
        "repro.network.sources": ("SOURCE_PLACEMENTS", "placement_names", "select_sources"),
        "repro.network.topology": ("Node", "WSNTopology"),
    },
)
