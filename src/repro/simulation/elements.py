"""Shared element construction for the corridor simulation engines.

One segment is simulated as a set of *elements* — the HP mast (all its RRHs
jointly), the LP service nodes and the donor nodes.  The vectorized
:mod:`repro.simulation.batch` engine and the event-queue oracle of the
parity tests (``tests/oracles/des``) build their devices from the same
:func:`corridor_elements` list, so the element order, coverage sections and
power levels are identical by construction and cross-engine parity reduces to
the time-integration semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode
from repro.errors import ConfigurationError, SimulationError

__all__ = ["ElementSpec", "corridor_elements"]


@dataclass(frozen=True)
class ElementSpec:
    """One simulated radio unit: power levels and coverage section.

    ``kind`` is the equipment class (``"hp"``, ``"service"`` or ``"donor"``)
    used for the per-class energy splits; ``name`` keeps the event engine's
    ``hp/mast`` / ``service/i`` / ``donor/j`` convention.
    """

    name: str
    kind: str
    full_load_w: float
    no_load_w: float
    sleep_w: float
    sleep_capable: bool
    section_start_m: float
    section_end_m: float

    def __post_init__(self) -> None:
        if not 0 <= self.sleep_w <= self.no_load_w <= self.full_load_w:
            raise SimulationError(
                f"{self.name}: expected sleep <= no-load <= full power, got "
                f"{self.sleep_w}/{self.no_load_w}/{self.full_load_w}")
        if self.section_end_m <= self.section_start_m:
            raise ConfigurationError(
                f"{self.name}: section end {self.section_end_m} must exceed "
                f"start {self.section_start_m}")


def corridor_elements(layout: CorridorLayout,
                      mode: OperatingMode = OperatingMode.SLEEP,
                      params: EnergyParams | None = None) -> tuple[ElementSpec, ...]:
    """Element list of one segment, in the event engine's scheduling order.

    The HP mast serves the whole segment with all its RRHs; each service node
    owns a node-spacing-long section around its position; donor nodes are
    active while a train overlaps the span of their served node group
    (Section V-A's donor counting rule).  Low-power nodes are sleep-capable
    unless the policy is :attr:`OperatingMode.CONTINUOUS`.

    Args:
        layout: The corridor geometry (HP masts + repeater field).
        mode: Operating policy, which decides sleep capability and the LP
            power draws.
        params: Energy parameters (paper defaults when ``None``).

    Returns:
        The ordered :class:`ElementSpec` tuple shared by both engines.
    """
    params = params or EnergyParams()
    sleeping_lp = mode is not OperatingMode.CONTINUOUS
    elements: list[ElementSpec] = []

    hp_model = params.hp_profile.model
    elements.append(ElementSpec(
        name="hp/mast", kind="hp",
        full_load_w=params.rrh_per_mast * hp_model.full_load_w,
        no_load_w=params.rrh_per_mast * hp_model.no_load_w,
        sleep_w=params.rrh_per_mast * hp_model.p_sleep_w,
        sleep_capable=True,
        section_start_m=0.0, section_end_m=layout.isd_m))

    half = params.lp_section_m / 2.0
    for i, pos in enumerate(layout.repeater_positions_m):
        elements.append(ElementSpec(
            name=f"service/{i}", kind="service",
            full_load_w=params.lp_full_w,
            no_load_w=params.lp_no_load_w,
            sleep_w=params.lp_sleep_w,
            sleep_capable=sleeping_lp,
            section_start_m=max(0.0, pos - half),
            section_end_m=min(layout.isd_m, pos + half)))

    positions = layout.repeater_positions_m
    n_donors = layout.n_donor_nodes
    if n_donors:
        if n_donors == 1:
            groups = [positions]
        else:
            split = (len(positions) + 1) // 2
            groups = [positions[:split], positions[split:]]
        for j, group in enumerate(groups):
            if not group:
                continue
            elements.append(ElementSpec(
                name=f"donor/{j}", kind="donor",
                full_load_w=params.lp_full_w,
                no_load_w=params.lp_no_load_w,
                sleep_w=params.lp_sleep_w,
                sleep_capable=sleeping_lp,
                section_start_m=max(0.0, group[0] - half),
                section_end_m=min(layout.isd_m, group[-1] + half)))
    return tuple(elements)
