"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from oracles import kernels as oracle_kernels

from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.radio.link import LinkParams
from repro.traffic.trains import TrafficParams


@pytest.fixture
def link_params() -> LinkParams:
    """Paper-default link parameters."""
    return LinkParams()


@pytest.fixture
def traffic_params() -> TrafficParams:
    """Paper Table III traffic scenario."""
    return TrafficParams()


@pytest.fixture
def energy_params() -> EnergyParams:
    """Paper energy-model parameters."""
    return EnergyParams()


@pytest.fixture
def fig3_layout() -> CorridorLayout:
    """The Fig. 3 example scenario: 2400 m ISD, 8 repeaters."""
    return CorridorLayout.with_uniform_repeaters(2400.0, 8)


@pytest.fixture
def conventional_layout() -> CorridorLayout:
    """The conventional 500 m HP-only segment."""
    return CorridorLayout.conventional()


@pytest.fixture
def reference_kernels():
    """Substitute the step-loop kernel oracles for the fused kernels in the
    engines the bitwise parity pins cover: the Monte-Carlo scan
    (``repro.optimize.mc``), the solar SoC walk (``repro.solar.batch``) and
    the batched shadowing traces (``repro.propagation.fading``)."""
    with oracle_kernels.substituted():
        yield
