"""Tests for the scenario layer: spec hashing, grid expansion, profile cache."""

import numpy as np
import pytest

from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.radio.link import LinkParams
from repro.radio.noise import RepeaterNoiseModel
from repro.scenario import ProfileCache, Scenario, ScenarioGrid, isd_candidates

PROFILE_FIELDS = ("positions_m", "source_rsrp_dbm", "total_signal_dbm",
                  "total_noise_dbm", "snr_db")


def make_scenario(**kwargs) -> Scenario:
    defaults = dict(isd_m=1200.0, n_repeaters=2, resolution_m=5.0)
    defaults.update(kwargs)
    link = defaults.pop("link", LinkParams())
    return Scenario.uniform(defaults.pop("isd_m"), defaults.pop("n_repeaters"),
                            link=link, resolution_m=defaults.pop("resolution_m"))


class TestScenario:
    def test_hash_is_stable(self):
        assert make_scenario().content_hash == make_scenario().content_hash

    def test_hash_differs_for_every_field(self):
        base = make_scenario()
        variants = [
            make_scenario(isd_m=1250.0),
            make_scenario(n_repeaters=3),
            make_scenario(resolution_m=2.0),
            make_scenario(link=LinkParams(hp_eirp_dbm=65.0)),
            make_scenario(link=LinkParams(lp_eirp_dbm=41.0)),
            make_scenario(link=LinkParams(terminal_noise_figure_db=8.0)),
            make_scenario(link=LinkParams(
                repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR)),
        ]
        hashes = {base.content_hash} | {v.content_hash for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ConfigurationError):
            Scenario(layout=CorridorLayout(1000.0), resolution_m=0.0)

    def test_positions_match_reference_grid(self):
        sc = make_scenario(isd_m=1000.0, resolution_m=1.0)
        positions = sc.positions_m()
        assert positions[0] == 1.0
        assert positions[-1] == 999.0

    def test_evaluate_is_reference_path(self):
        from repro.radio.link import compute_snr_profile

        sc = make_scenario()
        ref = compute_snr_profile(sc.layout, sc.link, resolution_m=sc.resolution_m)
        got = sc.evaluate()
        for name in PROFILE_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(ref, name))


class TestScenarioGrid:
    def test_isd_candidates_match_seed_rule(self):
        cands = isd_candidates(10, isd_step_m=50.0, isd_max_m=4000.0)
        assert cands[0] == 1900.0  # 200 * 9 + 2 * 50
        assert cands[-1] == 4000.0
        assert np.all(np.diff(cands) == 50.0)

    def test_cartesian_expansion(self):
        grid = ScenarioGrid(isd_values_m=(1000.0, 1500.0), n_values=(0, 2),
                            resolution_m=10.0,
                            hp_eirp_offsets_db=(0.0, 3.0))
        scenarios = grid.build()
        assert len(scenarios) == 2 * 2 * 2
        eirps = {sc.link.hp_eirp_dbm for sc in scenarios}
        assert eirps == {LinkParams().hp_eirp_dbm, LinkParams().hp_eirp_dbm + 3.0}

    def test_skips_infeasible_geometries(self):
        # 8 nodes span 1400 m: they do not fit a 1000 m segment.
        grid = ScenarioGrid(isd_values_m=(1000.0, 2000.0), n_values=(8,),
                            resolution_m=10.0)
        scenarios = grid.build()
        assert [sc.layout.isd_m for sc in scenarios] == [2000.0]

    def test_strict_mode_raises_on_infeasible(self):
        from repro.errors import GeometryError

        grid = ScenarioGrid(isd_values_m=(1000.0,), n_values=(8,),
                            skip_infeasible=False)
        with pytest.raises(GeometryError):
            grid.build()

    def test_perturbations_change_hashes(self):
        grid = ScenarioGrid(isd_values_m=(1000.0,), n_values=(1,),
                            resolution_m=10.0,
                            noise_figure_offsets_db=(-1.0, 0.0, 1.0))
        hashes = {sc.content_hash for sc in grid.build()}
        assert len(hashes) == 3

    def test_isd_sweep_matches_candidates(self):
        grid = ScenarioGrid.isd_sweep(3, isd_step_m=50.0, isd_max_m=2000.0,
                                      resolution_m=5.0)
        cands = isd_candidates(3, isd_step_m=50.0, isd_max_m=2000.0)
        assert [sc.layout.isd_m for sc in grid.build()] == list(cands)


class TestProfileCache:
    def test_same_hash_hits(self):
        cache = ProfileCache(maxsize=4)
        sc = make_scenario()
        first = cache.get_or_compute(sc)
        again = cache.get_or_compute(make_scenario())
        assert again is first
        assert cache.hits == 1 and cache.misses == 1

    def test_any_field_change_misses(self):
        cache = ProfileCache(maxsize=16)
        cache.get_or_compute(make_scenario())
        for variant in (
                make_scenario(link=LinkParams(hp_eirp_dbm=65.0)),
                make_scenario(link=LinkParams(
                    repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR)),
                make_scenario(resolution_m=2.5)):
            misses = cache.misses
            cache.get_or_compute(variant)
            assert cache.misses == misses + 1

    def test_cached_results_bit_identical(self, tmp_path):
        cache = ProfileCache(maxsize=4, cache_dir=tmp_path)
        sc = make_scenario()
        fresh = sc.evaluate()
        cache.put(sc, fresh)

        # Drop the memory layer so the lookup must go through disk.
        reloaded_cache = ProfileCache(maxsize=4, cache_dir=tmp_path)
        reloaded = reloaded_cache.get(sc)
        assert reloaded is not None
        for name in PROFILE_FIELDS:
            assert np.array_equal(getattr(reloaded, name), getattr(fresh, name))

    def test_lru_eviction(self):
        cache = ProfileCache(maxsize=2)
        scenarios = [make_scenario(isd_m=isd) for isd in (900.0, 1000.0, 1100.0)]
        for sc in scenarios:
            cache.get_or_compute(sc)
        assert len(cache) == 2
        assert cache.get(scenarios[0]) is None  # evicted
        assert cache.get(scenarios[2]) is not None

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ConfigurationError):
            ProfileCache(maxsize=0)

    def test_rejects_file_as_cache_dir(self, tmp_path):
        target = tmp_path / "notadir"
        target.write_text("")
        with pytest.raises(ConfigurationError):
            ProfileCache(cache_dir=target)

    def test_disk_round_trip_via_get_or_compute(self, tmp_path):
        warm = ProfileCache(maxsize=4, cache_dir=tmp_path)
        sc = make_scenario(n_repeaters=4, isd_m=1600.0)
        first = warm.get_or_compute(sc)

        cold = ProfileCache(maxsize=4, cache_dir=tmp_path)
        second = cold.get_or_compute(sc)
        assert cold.hits == 1 and cold.misses == 0
        assert np.array_equal(first.snr_db, second.snr_db)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ProfileCache(maxsize=4, cache_dir=tmp_path)
        sc = make_scenario()
        cache.bundle_path(sc.content_hash).write_bytes(b"torn write")
        profile = cache.get_or_compute(sc)  # must recompute, not crash
        assert profile is not None
        assert cache.quarantined == 1
        # The fresh put overwrote the corrupt file with a loadable one.
        cold = ProfileCache(maxsize=4, cache_dir=tmp_path)
        assert cold.get(sc) is not None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ProfileCache(maxsize=4, cache_dir=tmp_path)
        cache.get_or_compute(make_scenario())
        assert not [p for p in tmp_path.iterdir() if p.suffix != ".bundle"]


class TestGridLen:
    def test_len_matches_build(self):
        grid = ScenarioGrid(isd_values_m=(1000.0, 2000.0), n_values=(0, 8),
                            resolution_m=10.0, hp_eirp_offsets_db=(0.0, 3.0))
        assert len(grid) == len(grid.build())  # 8 nodes don't fit 1000 m

    def test_len_without_skip(self):
        grid = ScenarioGrid(isd_values_m=(2000.0,), n_values=(0, 1),
                            skip_infeasible=False)
        assert len(grid) == 2
