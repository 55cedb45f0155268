"""Tests for reporting helpers and the CLI."""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.reporting.series import series_to_csv, write_csv
from repro.reporting.tables import format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.50" in text

    def test_title(self):
        text = format_table(["col"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_rejects_empty_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_column_alignment(self):
        text = format_table(["name", "value"], [["long-name-here", 1], ["x", 22]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[2])


class TestSeries:
    def test_csv_content(self):
        csv_text = series_to_csv({"x": [1, 2], "y": [3.0, 4.0]})
        lines = csv_text.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,3.0"

    def test_rejects_ragged_columns(self):
        with pytest.raises(ConfigurationError):
            series_to_csv({"x": [1, 2], "y": [3]})

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            series_to_csv({})

    def test_write_creates_dirs(self, tmp_path):
        out = write_csv(tmp_path / "deep" / "nested" / "data.csv", {"x": [1]})
        assert out.exists()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table4" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "560.00" in out

    def test_run_with_csv(self, tmp_path, capsys):
        assert main(["table3", "--csv", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "table3.csv").exists()
        assert capsys.readouterr().out == ""


class TestCliEngineFlags:
    def test_jobs_flag(self, capsys):
        assert main(["fig3", "--jobs", "2", "--quiet"]) == 0

    def test_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "profiles"
        assert main(["fig3", "--cache-dir", str(cache_dir), "--quiet"]) == 0
        assert any(cache_dir.iterdir())
        # Second run hits the persisted cache (same experiment, same scenario).
        assert main(["fig3", "--cache-dir", str(cache_dir), "--quiet"]) == 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--jobs", "0"])

    @staticmethod
    def _sim_grid_study(tmp_path, headways="[450.0, 900.0]", realizations=2):
        """A sim-grid study file over (headway x trains/day x policy)."""
        path = tmp_path / "sim_grid.yaml"
        path.write_text(f"""
name: sim-grid
engine: sim
axes:
  headway_s: {headways}
  trains_per_day: [76.0, 152.0]
  policy: [continuous, sleep, solar]
fixed:
  isd_m: 2400.0
  realizations: {realizations}
""")
        return str(path)

    def test_sim_grid_realizations_and_headways(self, tmp_path, capsys):
        csv_path = tmp_path / "sim_grid.csv"
        assert main(["study", "run", self._sim_grid_study(tmp_path),
                     "--csv", str(csv_path), "--layout", "wide",
                     "--quiet"]) == 0
        csv_text = csv_path.read_text()
        assert "450" in csv_text and "900" in csv_text
        # 2 headways x 2 trains/day x 3 policies = 12 rows + header.
        assert len(csv_text.strip().splitlines()) == 13

    def test_rejects_bad_realizations(self, tmp_path, capsys):
        path = self._sim_grid_study(tmp_path, realizations=0)
        assert main(["study", "run", path, "--quiet"]) == 1
        assert "realizations must be >= 1" in capsys.readouterr().err

    def test_rejects_bad_headways(self, tmp_path, capsys):
        path = self._sim_grid_study(tmp_path, headways="[450.0, -1.0]")
        assert main(["study", "run", path, "--quiet"]) == 1
        assert "must be positive" in capsys.readouterr().err
