"""Component-level power breakdown of the low-power repeater — Table I.

The prototype consists of a controller, a GNSS-disciplined OCXO, a local
oscillator with frequency doubler, RF switches, and per-direction LNA/PA
chains (two paths each for DL and UL, cross-polarized).

Reconciliation with the paper's totals (see Modelling decisions §4.4 in
docs/reproducing.md):

* Sleep: controller + DOCXO + LO-in-sleep = 2 + 2.22 + 0.5 = 4.72 W  (exact).
* No load: all components on, the four PAs at quiescent drive.  The paper's
  Table II gives P0 = 24.26 W, which implies a PA quiescent power of
  (24.26 - 11.899) / 4 = 3.09 W — a plausible class-AB idle draw.
* Full load: the paper reports 28.38 W.  The raw sum with all four PAs at
  full drive would be 31.9 W; 5G NR at 3.5 GHz is TDD, so only one direction
  transmits at a time.  With the two active-direction PAs at full drive and
  the other two at quiescent the model gives 28.08 W (0.3 W below the paper's
  figure — within component rounding).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ComponentMode", "Component", "RepeaterBill", "repeater_prototype_bill"]


class ComponentMode(enum.Enum):
    """Functional group a component belongs to (Table I columns)."""

    COMMON = "common"
    DOWNLINK = "downlink"
    UPLINK = "uplink"


@dataclass(frozen=True)
class Component:
    """One line of the Table I bill of materials.

    ``active_w`` is the draw when its direction is transmitting/receiving;
    ``idle_w`` when powered but not driven; ``sleep_w`` in sleep mode.
    """

    name: str
    mode: ComponentMode
    active_w: float
    idle_w: float
    sleep_w: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"component count must be >= 1, got {self.count}")
        for label, value in (("active", self.active_w), ("idle", self.idle_w),
                             ("sleep", self.sleep_w)):
            if value < 0:
                raise ConfigurationError(f"{label} power of {self.name} must be >= 0, got {value}")

    def total_active_w(self) -> float:
        return self.active_w * self.count

    def total_idle_w(self) -> float:
        return self.idle_w * self.count

    def total_sleep_w(self) -> float:
        return self.sleep_w * self.count


#: PA quiescent draw implied by Table II's P0 (see module docstring).
PA_QUIESCENT_W = 3.09025


def repeater_prototype_bill() -> "RepeaterBill":
    """The Table I bill of materials of the prototype repeater node."""
    c = ComponentMode.COMMON
    dl = ComponentMode.DOWNLINK
    ul = ComponentMode.UPLINK
    return RepeaterBill(components=(
        Component("Controller", c, active_w=2.0, idle_w=2.0, sleep_w=2.0),
        Component("GNSS DOCXO", c, active_w=2.22, idle_w=2.22, sleep_w=2.22),
        Component("Local Oscillator", c, active_w=5.0, idle_w=5.0, sleep_w=0.5),
        Component("Frequency Doubler", c, active_w=0.35, idle_w=0.35, sleep_w=0.0),
        Component("RF Switches", c, active_w=0.195, idle_w=0.195, sleep_w=0.0),
        Component("RX LNA (DL)", dl, active_w=0.27, idle_w=0.27, sleep_w=0.0, count=2),
        Component("TX PA (DL)", dl, active_w=5.0, idle_w=PA_QUIESCENT_W, sleep_w=0.0, count=2),
        Component("RX LNA (UL)", ul, active_w=0.462, idle_w=0.462, sleep_w=0.0, count=2),
        Component("Second RX LNA (UL)", ul, active_w=0.335, idle_w=0.335, sleep_w=0.0, count=2),
        Component("TX PA (UL)", ul, active_w=5.0, idle_w=PA_QUIESCENT_W, sleep_w=0.0, count=2),
    ))


@dataclass(frozen=True)
class RepeaterBill:
    """A bill of components with mode-aware power aggregation."""

    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError("a repeater bill needs at least one component")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate component names in {names}")

    def sleep_w(self) -> float:
        """Sleep-mode draw (Table I last column): 4.72 W."""
        return sum(c.total_sleep_w() for c in self.components)

    def no_load_w(self) -> float:
        """All components on, PAs at quiescent (Table II P0): 24.26 W."""
        return sum(c.total_idle_w() for c in self.components)

    def full_load_tdd_w(self, downlink_active: bool = True) -> float:
        """Full traffic load under TDD: one direction's PAs at full drive."""
        active_mode = ComponentMode.DOWNLINK if downlink_active else ComponentMode.UPLINK
        total = 0.0
        for c in self.components:
            if c.mode is ComponentMode.COMMON or c.mode is active_mode:
                total += c.total_active_w()
            else:
                total += c.total_idle_w()
        return total

    def full_load_simultaneous_w(self) -> float:
        """Raw sum with every path at full drive (31.9 W, upper bound)."""
        return sum(c.total_active_w() for c in self.components)

    def by_mode(self, mode: ComponentMode) -> tuple[Component, ...]:
        """Components belonging to one functional group."""
        return tuple(c for c in self.components if c.mode is mode)
