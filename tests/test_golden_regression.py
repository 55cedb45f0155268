"""Golden-regression harness — current runs vs. tests/golden/*.json.

The snapshots pin the reproduced Table I-IV and Fig. 3/4 series; refresh
them only for intended result changes via ``tools/refresh_golden.py``.
"""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.reporting.golden import (
    GOLDEN_SPECS,
    GoldenSpec,
    compare_series,
    compute_series,
    golden_path,
    load_snapshot,
    save_snapshot,
    spec_for,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("spec", GOLDEN_SPECS,
                         ids=[s.experiment_id for s in GOLDEN_SPECS])
def test_experiment_matches_golden_snapshot(spec):
    problems = compare_series(spec, compute_series(spec),
                              load_snapshot(spec, GOLDEN_DIR))
    assert not problems, "\n".join(problems)


def test_every_spec_has_a_committed_snapshot():
    for spec in GOLDEN_SPECS:
        assert golden_path(GOLDEN_DIR, spec).exists(), spec.experiment_id


def test_study_backed_snapshot_regenerates_byte_for_byte(tmp_path):
    # The network snapshot comes from studies/national_network.yaml; a
    # refresh must reproduce the committed file exactly, not just within
    # tolerance.
    spec = spec_for("network")
    written = save_snapshot(spec, tmp_path)
    assert written.read_bytes() == golden_path(GOLDEN_DIR, spec).read_bytes()


class TestHarnessMechanics:
    def test_spec_for_unknown_id(self):
        with pytest.raises(ConfigurationError):
            spec_for("nope")

    def test_spec_for_known_id(self):
        assert spec_for("fig4").experiment_id == "fig4"

    def test_missing_snapshot_reports_refresh_tool(self):
        with pytest.raises(ConfigurationError, match="refresh_golden"):
            load_snapshot(spec_for("fig4"), "/nonexistent/golden")

    def test_kwargs_drift_detected(self, tmp_path):
        spec = GoldenSpec("table3")
        save_snapshot(spec, tmp_path)
        with pytest.raises(ConfigurationError, match="kwargs"):
            load_snapshot(GoldenSpec("table3", kwargs={"x": 1}), tmp_path)

    def test_tolerance_detects_drift_and_accepts_noise(self, tmp_path):
        spec = GoldenSpec("table3", rtol=1e-9, atol=0.0)
        save_snapshot(spec, tmp_path)
        reference = load_snapshot(spec, tmp_path)
        current = {k: list(v) for k, v in reference.items()}
        current["duty_pct"] = [v * (1.0 + 1e-12) for v in current["duty_pct"]]
        assert compare_series(spec, current, reference) == []
        current["duty_pct"] = [v * 1.01 for v in current["duty_pct"]]
        problems = compare_series(spec, current, reference)
        assert problems and "duty_pct" in problems[0]

    def test_per_field_tolerance_override(self):
        spec = GoldenSpec("x", field_tolerances={"noisy": (0.5, 0.0)})
        ref = {"noisy": [1.0], "tight": [1.0]}
        cur = {"noisy": [1.3], "tight": [1.3]}
        problems = compare_series(spec, cur, ref)
        assert len(problems) == 1 and "tight" in problems[0]

    def test_nan_matches_nan_and_shape_drift_reported(self):
        spec = GoldenSpec("x")
        assert compare_series(spec, {"a": ["NaN", 1.0]},
                              {"a": [float("nan"), 1.0]}) == []
        problems = compare_series(spec, {"a": [1.0]}, {"a": [1.0, 2.0]})
        assert problems and "length" in problems[0]
        problems = compare_series(spec, {"a": [1.0], "b": [1.0]}, {"a": [1.0]})
        assert problems and "not in snapshot" in problems[0]
