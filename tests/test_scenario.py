"""Tests for the scenario layer: spec hashing and the profile cache."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.radio.link import LinkParams
from repro.radio.noise import RepeaterNoiseModel
from repro.scenario import ProfileCache, Scenario

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

    def test_noise_figure_offsets_change_hashes(self):
        base = LinkParams()
        hashes = {make_scenario(link=LinkParams(
            repeater_noise_figure_db=base.repeater_noise_figure_db + offset))
            .content_hash for offset in (-1.0, 0.0, 1.0)}
        assert len(hashes) == 3

    def test_rejects_geometry_that_does_not_fit(self):
        from repro.errors import GeometryError

        # 8 nodes span 1400 m: they do not fit a 1000 m segment.
        with pytest.raises(GeometryError):
            make_scenario(isd_m=1000.0, n_repeaters=8)

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


class TestContentToken:
    """``content_token`` decides each type's rendering once; its tokens are
    byte-identical to the per-object oracle, so no cache key moves."""

    @staticmethod
    def scenarios():
        from repro.radio.noise import RepeaterNoiseModel

        out = []
        for i in range(50):
            link = LinkParams(
                hp_eirp_dbm=60.0 + (i % 7) * 0.25,
                repeater_noise_model=list(RepeaterNoiseModel)[
                    i % len(RepeaterNoiseModel)])
            out.append(make_scenario(isd_m=1200.0 + 37.5 * i,
                                     n_repeaters=i % 5, link=link,
                                     resolution_m=(1.0, 2.5, 10.0)[i % 3]))
        return out

    def test_scenarios_match_the_oracle(self):
        from oracles.tokens import content_token as oracle
        from repro.scenario.cache import content_token

        for scenario in self.scenarios():
            assert content_token(scenario) == oracle(scenario)

    def test_shipped_study_hashes_are_unchanged(self):
        import hashlib
        from dataclasses import replace
        from pathlib import Path

        from oracles.tokens import content_token as oracle
        from repro.study import load_study

        studies = Path(__file__).resolve().parents[1] / "studies"
        paths = sorted(studies.glob("*.yaml"))
        assert len(paths) == 4
        for path in paths:
            spec = load_study(path)
            core = replace(spec, derived=(), metrics=(), description="")
            assert spec.compute_hash == hashlib.sha256(
                oracle(core).encode()).hexdigest(), path.name

    def test_mixed_sequences_match_the_oracle(self):
        import enum

        from oracles.tokens import content_token as oracle
        from repro.radio.noise import RepeaterNoiseModel
        from repro.scenario.cache import content_token

        class Level(enum.IntEnum):
            LOW = 1

        values = [
            None, True, 0, -3, "a'b", 1.5, -0.0, float("inf"),
            np.float32(0.1), np.float64(2.0), Level.LOW,
            RepeaterNoiseModel.FRONTHAUL_STAR, (1, [2.0, None]), [],
            np.arange(6.0).reshape(2, 3), make_scenario().layout,
            (make_scenario(), "x", [np.float64(1e-300)]),
        ]
        assert content_token(values) == oracle(values)
        for value in values:
            assert content_token(value) == oracle(value)

    @pytest.mark.parametrize("value", [
        np.int64(3), {"a": 1}, {1, 2}, object(), CorridorLayout,
        [1.0, np.bool_(True)]])
    def test_unsupported_types_raise_alike(self, value):
        from oracles.tokens import content_token as oracle
        from repro.scenario.cache import content_token

        with pytest.raises(ConfigurationError) as expected:
            oracle(value)
        with pytest.raises(ConfigurationError) as got:
            content_token(value)
        assert str(got.value) == str(expected.value)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5)
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children),
        max_leaves=20))
    def test_drawn_values_match_the_oracle(self, value):
        from oracles.tokens import content_token as oracle
        from repro.scenario.cache import content_token

        assert content_token(value) == oracle(value)

    def test_evaluate_scenarios_hashes_each_scenario_once(self, monkeypatch):
        from repro.radio.batch import evaluate_scenarios

        hashed = []
        content_hash = Scenario.content_hash.fget

        def counted(scenario):
            hashed.append(scenario)
            return content_hash(scenario)

        monkeypatch.setattr(Scenario, "content_hash", property(counted))
        scenarios = [make_scenario(isd_m=isd) for isd in (1200.0, 1400.0)]
        scenarios.append(make_scenario(isd_m=1200.0))  # a duplicate
        cache = ProfileCache(maxsize=8)
        first = evaluate_scenarios(scenarios, cache=cache)
        assert len(hashed) == 3
        assert first[2] is first[0]
        hashed.clear()
        again = evaluate_scenarios(scenarios, cache=cache)  # all hits
        assert len(hashed) == 3
        assert all(a is b for a, b in zip(again, first))
