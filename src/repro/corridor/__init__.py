"""Corridor geometry: tracks, catenary masts, layouts, deployment plans.

A *layout* is one HP-mast-to-HP-mast segment with its repeater field — the
unit the capacity model evaluates.  A *deployment* tiles layouts along a whole
corridor and is the unit the energy model normalizes per kilometre.
"""

from repro._lazy import lazy_exports

__all__ = [
    "TrackSegment",
    "CatenaryGrid",
    "CorridorLayout",
    "donor_node_count",
    "CorridorDeployment",
    "DeploymentKind",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "geometry": ("CatenaryGrid", "TrackSegment"),
    "layout": ("CorridorLayout", "donor_node_count"),
    "deployment": ("CorridorDeployment", "DeploymentKind"),
})
