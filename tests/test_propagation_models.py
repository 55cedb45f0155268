"""Tests for the fronthaul link budget and log-normal shadowing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles.mc import sample

from repro.errors import ConfigurationError
from repro.propagation.fading import LogNormalShadowing
from repro.propagation.fronthaul import (
    FronthaulBudget,
    FronthaulParams,
    FronthaulTopology,
)


class TestFronthaul:
    def test_snr_at_reference(self):
        budget = FronthaulBudget(FronthaulParams(snr_at_1km_db=33.0))
        assert 10 * np.log10(budget.snr_linear_at(1000.0)) == pytest.approx(33.0)

    def test_snr_inverse_square(self):
        budget = FronthaulBudget(FronthaulParams(snr_at_1km_db=33.0))
        assert 10 * np.log10(budget.snr_linear_at(500.0)) == pytest.approx(39.02, abs=0.01)

    def test_star_output_equals_direct(self):
        budget = FronthaulBudget(FronthaulParams(snr_at_1km_db=30.0))
        direct = budget.snr_linear_at([400.0, 800.0])
        out = budget.output_snr_linear([400.0, 800.0])
        assert np.allclose(direct, out)

    def test_chain_accumulates_noise(self):
        params = FronthaulParams(snr_at_1km_db=33.0, topology=FronthaulTopology.CHAIN)
        budget = FronthaulBudget(params)
        one_hop = budget.chain_output_snr_linear([500.0], [0], 200.0)
        three_hops = budget.chain_output_snr_linear([500.0], [2], 200.0)
        assert three_hops[0] < one_hop[0]

    def test_chain_rejects_negative_hops(self):
        budget = FronthaulBudget(FronthaulParams(topology=FronthaulTopology.CHAIN))
        with pytest.raises(ConfigurationError):
            budget.chain_output_snr_linear([500.0], [-1], 200.0)

    def test_star_refuses_chain_api_mix(self):
        params = FronthaulParams(topology=FronthaulTopology.CHAIN)
        with pytest.raises(ConfigurationError):
            FronthaulBudget(params).output_snr_linear([100.0])

    def test_rejects_sub6_fronthaul(self):
        with pytest.raises(ConfigurationError):
            FronthaulParams(mmwave_frequency_hz=3.5e9)

    @given(st.floats(min_value=10.0, max_value=5000.0))
    def test_snr_decreases_with_distance(self, d):
        budget = FronthaulBudget(FronthaulParams(snr_at_1km_db=33.0))
        assert budget.snr_linear_at(d * 2) < budget.snr_linear_at(d)


class TestShadowing:
    def test_zero_sigma_gives_zeros(self):
        model = LogNormalShadowing(sigma_db=0.0)
        rng = np.random.default_rng(1)
        out = sample(model, np.arange(0.0, 100.0, 10.0), rng)
        assert np.all(out == 0.0)

    def test_deterministic_given_seed(self):
        model = LogNormalShadowing(sigma_db=4.0)
        pos = np.arange(0.0, 500.0, 5.0)
        a = sample(model, pos, np.random.default_rng(7))
        b = sample(model, pos, np.random.default_rng(7))
        assert np.allclose(a, b)

    def test_empirical_std_close_to_sigma(self):
        model = LogNormalShadowing(sigma_db=4.0, decorrelation_m=50.0)
        rng = np.random.default_rng(0)
        samples = np.concatenate([
            sample(model, np.arange(0.0, 2000.0, 10.0), rng) for _ in range(30)])
        assert np.std(samples) == pytest.approx(4.0, rel=0.15)

    def test_correlation_decays(self):
        model = LogNormalShadowing(sigma_db=4.0, decorrelation_m=50.0)
        rng = np.random.default_rng(3)
        traces = np.array([sample(model, np.array([0.0, 10.0, 500.0]), rng)
                           for _ in range(4000)])
        corr_near = np.corrcoef(traces[:, 0], traces[:, 1])[0, 1]
        corr_far = np.corrcoef(traces[:, 0], traces[:, 2])[0, 1]
        assert corr_near > 0.7
        assert abs(corr_far) < 0.1

    def test_rejects_unsorted_positions(self):
        model = LogNormalShadowing()
        with pytest.raises(ConfigurationError):
            model.coefficients(np.array([10.0, 5.0]))

    def test_rejects_empty_positions(self):
        model = LogNormalShadowing()
        with pytest.raises(ConfigurationError):
            model.coefficients(np.array([]))
