"""Tests for the experiment runners (one per table/figure) and the registry."""

import numpy as np
import pytest

from repro import constants
from repro.errors import ConfigurationError
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.maxisd import run_maxisd
from repro.experiments.runner import ALL_EXPERIMENTS, run_all, run_experiment
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3()

    def test_scenario_matches_paper(self, result):
        assert result.layout.isd_m == 2400.0
        assert result.layout.n_repeaters == 8

    def test_min_snr_sustains_peak(self, result):
        assert result.profile.min_snr_db > 29.30

    def test_hp_crossing_in_first_segment_half(self, result):
        # Paper narrative: HP signal drops below -100 dBm well before the
        # first repeater's coverage peak.
        assert 200.0 < result.hp_below_100dbm_after_m < 500.0

    def test_series_columns(self, result):
        series = result.series()
        assert "position_m" in series and "total_signal_dbm" in series
        assert "repeater_8_dbm" in series
        lengths = {len(v) for v in series.values()}
        assert len(lengths) == 1

    def test_table_renders(self, result):
        text = result.table()
        assert "Fig. 3" in text and "min SNR" in text


class TestMaxIsd:
    @pytest.fixture(scope="class")
    def result(self):
        return run_maxisd(resolution_m=4.0)

    def test_ten_entries(self, result):
        assert len(result.model_list) == 10

    def test_total_error_bounded(self, result):
        assert result.total_abs_error_m <= 1300.0

    def test_head_exact(self, result):
        assert result.model_list[:4] == list(constants.PAPER_MAX_ISD_M[:4])

    def test_table_and_series(self, result):
        assert "Max ISD" in result.table()
        series = result.series()
        assert series["paper_max_isd_m"] == list(constants.PAPER_MAX_ISD_M)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4()

    def test_headline_savings(self, result):
        assert 100 * result.row_for(1).sleep_savings == pytest.approx(57.0, abs=0.5)
        assert 100 * result.row_for(10).sleep_savings == pytest.approx(74.0, abs=0.5)
        assert 100 * result.row_for(10).solar_savings == pytest.approx(79.0, abs=0.5)

    def test_eleven_rows(self, result):
        assert len(result.rows) == 11  # conventional + N=1..10

    def test_unknown_row_raises(self, result):
        with pytest.raises(KeyError):
            result.row_for(42)

    def test_series_consistent(self, result):
        series = result.series()
        assert len(series["n_repeaters"]) == 11
        assert series["isd_m"][0] == 500.0

    def test_model_derived_variant(self):
        custom = run_fig4(isd_by_n={1: 1250.0, 2: 1450.0})
        assert len(custom.rows) == 3
        assert custom.isd_source == "model-derived"


class TestTables:
    def test_table1_totals(self):
        result = run_table1()
        assert result.sleep_w == pytest.approx(4.72)
        assert result.no_load_w == pytest.approx(24.26, abs=0.01)
        assert result.full_load_tdd_w == pytest.approx(28.38, abs=0.4)
        assert "Table I" in result.table()

    def test_table2_site_powers(self):
        result = run_table2()
        assert result.hp_site_full_w == pytest.approx(560.0)
        assert result.hp_site_no_load_w == pytest.approx(336.0)
        assert result.hp_site_sleep_w == pytest.approx(224.0)
        assert result.repeater_energy_share_of_site == pytest.approx(0.0507, abs=0.001)

    def test_table3_duty_cycles(self):
        result = run_table3()
        assert 100 * result.duty_at_500m == pytest.approx(2.85, abs=0.01)
        assert 100 * result.duty_at_2650m == pytest.approx(9.66, abs=0.01)
        assert result.full_load_s_at_500m == pytest.approx(16.2, abs=0.1)
        assert result.full_load_s_at_2650m == pytest.approx(54.9, abs=0.1)
        assert result.lp_sleeping_avg_w == pytest.approx(5.17, abs=0.01)
        assert result.lp_sleeping_wh_per_day == pytest.approx(124.1, abs=0.1)

    def test_table4_configs_match_paper(self):
        result = run_table4()
        s = result.sizings
        assert (s["madrid"].pv_peak_w, s["madrid"].battery_capacity_wh) == (540.0, 720.0)
        assert (s["lyon"].pv_peak_w, s["lyon"].battery_capacity_wh) == (540.0, 720.0)
        assert (s["vienna"].pv_peak_w, s["vienna"].battery_capacity_wh) == (540.0, 1440.0)
        assert (s["berlin"].pv_peak_w, s["berlin"].battery_capacity_wh) == (600.0, 1440.0)

    def test_table4_ordering(self):
        result = run_table4()
        assert result.full_days_ordering() == ["madrid", "lyon", "vienna", "berlin"]

    def test_table4_full_days_close_to_paper(self):
        result = run_table4()
        for key, sizing in result.sizings.items():
            paper = constants.PAPER_FULL_BATTERY_DAYS_PCT[key]
            assert sizing.result.full_battery_days_pct == pytest.approx(paper, abs=2.5), key


class TestRunner:
    def test_registry_contains_all_artifacts(self):
        for eid in ("fig3", "fig4", "maxisd", "table1", "table2", "table3", "table4"):
            assert eid in ALL_EXPERIMENTS

    def test_no_id_shadowed_by_a_cli_subcommand(self):
        # main() routes these leading words away from the experiment
        # registry, so an id among them could never run from the CLI.
        from repro.cli import SUBCOMMANDS

        reserved = set(SUBCOMMANDS) | {"all", "list"}
        assert not reserved & set(ALL_EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_run_with_csv_output(self, tmp_path):
        run_experiment("table3", output_dir=tmp_path)
        csv_file = tmp_path / "table3.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert "isd_m" in header

    def test_run_all_subset(self, tmp_path):
        results = run_all(output_dir=tmp_path, ids=["table2", "table3"])
        assert set(results) == {"table2", "table3"}
        assert (tmp_path / "table2.csv").exists()


class TestRunnerKwargs:
    def test_progress_callback_invoked(self):
        seen = []
        run_all(ids=["table2", "table3"],
                progress=lambda i, total, eid: seen.append((i, total, eid)))
        assert seen == [(1, 2, "table2"), (2, 2, "table3")]

    def test_kwargs_forwarded_to_runner(self):
        # fig3 accepts resolution_m; a coarser grid halves the series length.
        fine = run_experiment("fig3")
        coarse = run_experiment("fig3", resolution_m=2.0)
        assert coarse.profile.positions_m.size < fine.profile.positions_m.size

    def test_unaccepted_kwargs_dropped(self):
        # table2 takes no engine options; they must be ignored, not raise.
        result = run_experiment("table2", jobs=2, cache=None)
        assert hasattr(result, "table")

    def test_engine_options_reach_sweep(self, tmp_path):
        from repro.scenario import ProfileCache

        cache = ProfileCache(maxsize=512, cache_dir=tmp_path)
        run_experiment("maxisd", resolution_m=8.0, cache=cache)
        assert cache.misses > 0
        assert any(tmp_path.iterdir())

    def test_typo_kwargs_raise(self):
        with pytest.raises(ConfigurationError):
            run_experiment("maxisd", exhuastive=True)  # typo'd override
