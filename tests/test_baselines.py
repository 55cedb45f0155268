"""Tests for the onboard-relay baseline."""

import pytest

from repro.baselines.onboard_relay import OnboardRelayFleet
from repro.errors import ConfigurationError


class TestOnboardRelay:
    def test_average_power_per_train(self):
        fleet = OnboardRelayFleet()
        # 2 relays x 650 W x 1.3 cooling x 19/24 duty = 1338 W.
        assert fleet.average_power_per_train_w == pytest.approx(1337.9, abs=0.5)

    def test_fleet_scaling(self):
        fleet = OnboardRelayFleet()
        assert fleet.fleet_average_power_w(10) == pytest.approx(
            10 * fleet.average_power_per_train_w)

    def test_relays_cost_more_than_repeater_corridor(self):
        # A fleet serving a 100 km corridor (say 25 trainsets) vs. the
        # repeater corridor's ~120 W/km: relays lose clearly.
        fleet = OnboardRelayFleet()
        per_km = fleet.per_km_equivalent_w(n_trains=25, corridor_km=100.0)
        assert per_km > 120.0

    def test_annual_energy(self):
        fleet = OnboardRelayFleet()
        assert fleet.annual_energy_mwh(1) == pytest.approx(
            fleet.average_power_per_train_w * 8760 / 1e6)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            OnboardRelayFleet(relays_per_train=0)
        with pytest.raises(ConfigurationError):
            OnboardRelayFleet(duty=1.5)
        with pytest.raises(ConfigurationError):
            OnboardRelayFleet().fleet_average_power_w(-1)
        with pytest.raises(ConfigurationError):
            OnboardRelayFleet().per_km_equivalent_w(10, 0.0)
