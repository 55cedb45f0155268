"""Power state machine of a corridor radio unit.

States and transitions::

    SLEEP --wake()--> WAKING --(transition_s)--> NO_LOAD/FULL_LOAD
    NO_LOAD <--> FULL_LOAD        (load changes, instantaneous)
    any awake state --sleep()--> SLEEP   (instantaneous power drop)

During WAKING the unit already draws its awake power but cannot serve traffic
(the paper assumes "a few hundred milliseconds" transitions).  Sleep-incapable
units (continuous operation) idle at NO_LOAD instead of sleeping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SimulationError
from oracles.des.engine import Simulator
from oracles.des.recorder import EnergyRecorder

__all__ = ["NodeState", "PowerStateMachine"]


class NodeState(enum.Enum):
    SLEEP = "sleep"
    WAKING = "waking"
    NO_LOAD = "no_load"
    FULL_LOAD = "full_load"


@dataclass
class PowerStateMachine:
    """Tracks one unit's power state and reports draw changes to a recorder.

    ``occupancy`` counts trains currently inside the unit's coverage section;
    the unit is at FULL_LOAD whenever occupancy > 0.
    """

    name: str
    full_load_w: float
    no_load_w: float
    sleep_w: float
    sleep_capable: bool = True
    transition_s: float = 0.3

    def __post_init__(self) -> None:
        if not 0 <= self.sleep_w <= self.no_load_w <= self.full_load_w:
            raise SimulationError(
                f"{self.name}: expected sleep <= no-load <= full power, got "
                f"{self.sleep_w}/{self.no_load_w}/{self.full_load_w}")
        if self.transition_s < 0:
            raise SimulationError(f"{self.name}: transition time must be >= 0")
        self.state = NodeState.SLEEP if self.sleep_capable else NodeState.NO_LOAD
        self.occupancy = 0
        self._recorder: EnergyRecorder | None = None
        self._wake_event = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, recorder: EnergyRecorder, sim: Simulator) -> None:
        """Register with a recorder and remember the simulator clock."""
        self._recorder = recorder
        self._sim = sim
        recorder.register(self.name, self.power_w, sim.now)

    @property
    def power_w(self) -> float:
        """Current electrical draw of the unit."""
        if self.state is NodeState.SLEEP:
            return self.sleep_w
        if self.state is NodeState.FULL_LOAD:
            return self.full_load_w
        # WAKING draws awake power already; NO_LOAD is the idle draw.
        return self.no_load_w if self.state is not NodeState.WAKING else self.no_load_w

    def _set_state(self, state: NodeState) -> None:
        if state is self.state:
            return
        self.state = state
        if self._recorder is not None:
            self._recorder.update(self.name, self.power_w, self._sim.now)

    # -- commands -------------------------------------------------------------

    def wake(self) -> None:
        """Begin waking (detector fired).  No-op when already awake."""
        if not self.sleep_capable or self.state is not NodeState.SLEEP:
            return
        self._set_state(NodeState.WAKING)
        if self.transition_s == 0:
            self._finish_wake()
        else:
            self._wake_event = self._sim.schedule(self.transition_s, self._finish_wake)

    def _finish_wake(self) -> None:
        if self.state is not NodeState.WAKING:
            return
        self._set_state(NodeState.FULL_LOAD if self.occupancy > 0 else NodeState.NO_LOAD)

    def try_sleep(self) -> None:
        """Go to sleep if idle (no trains in section)."""
        if not self.sleep_capable:
            self._set_state(NodeState.FULL_LOAD if self.occupancy > 0 else NodeState.NO_LOAD)
            return
        if self.occupancy == 0:
            if self._wake_event is not None:
                self._wake_event.cancel()
                self._wake_event = None
            self._set_state(NodeState.SLEEP)

    def train_enter(self) -> None:
        """A train entered the coverage section."""
        self.occupancy += 1
        if self.state in (NodeState.NO_LOAD, NodeState.FULL_LOAD):
            self._set_state(NodeState.FULL_LOAD)
        elif self.state is NodeState.SLEEP:
            # Detector missed or absent: wake now (late wake, service gap).
            self.wake()

    def train_exit(self) -> None:
        """A train left the coverage section."""
        if self.occupancy <= 0:
            raise SimulationError(f"{self.name}: train_exit with occupancy 0")
        self.occupancy -= 1
        if self.occupancy == 0 and self.state is NodeState.FULL_LOAD:
            self._set_state(NodeState.NO_LOAD)
            self.try_sleep()
