"""Tests for the declarative study layer (repro.study).

Covers the ISSUE-5 contract: YAML/TOML round-trips and validation errors,
shard-count invariance (1 shard == N shards bit-identical under CRN),
resume-from-partial-results equality, study-vs-engine parity for the
shipped ``studies/*.yaml`` files, and the ``repro study`` CLI smoke.
"""

import ast
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import repro.study.expressions as expressions
from repro.cli import main
from repro.errors import ConfigurationError
from repro.study import (
    STUDY_ENGINES,
    StudySpec,
    StudyStore,
    compile_expression,
    load_study,
    parse_study,
    read_journal,
    run_study,
    shard_ranges,
)

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"

MC_TEXT = """
name: mc-tiny
engine: mc
seed: 7
axes:
  sigma_db: [2.0, 4.0]
  isd_m: [2000.0, 2400.0]
fixed:
  n_repeaters: 8
  trials: 12
  resolution_m: 50.0
derived:
  outage_pct: 100 * outage_probability
"""


def mc_spec() -> StudySpec:
    return parse_study(MC_TEXT)


#: Derived formulas undefined on some cases: 1/0 and log(0) where the
#: threshold is missed, exp(1000) (overflow) where it is met.
UNDEFINED_DERIVED_TEXT = """
name: radio-undefined
engine: radio
axes:
  isd_m: [1500.0, 3000.0]
  threshold_db: [10.0, 60.0]
fixed:
  resolution_m: 50.0
derived:
  inv: 1 / feasible
  lg: log(feasible)
  big: exp(1000 * feasible)
  twice: 2 * margin_db
"""


# -- spec loading and validation ----------------------------------------------


class TestSpec:
    def test_yaml_round_trip(self):
        spec = mc_spec()
        assert spec.name == "mc-tiny"
        assert spec.engine == "mc"
        assert spec.axis_names == ("sigma_db", "isd_m")
        assert spec.case_count == 4
        assert dict(spec.fixed)["trials"] == 12
        assert spec.derived == (("outage_pct", "100 * outage_probability"),)

    def test_toml_round_trip(self):
        text = """
name = "toml-study"
engine = "radio"
seed = 3

[axes]
isd_m = [2000.0, 2400.0]

[fixed]
n_repeaters = 8
resolution_m = 50.0
"""
        spec = parse_study(text, format="toml")
        assert spec.name == "toml-study"
        assert spec.case_count == 2
        assert spec.seed == 3

    def test_load_study_file(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(MC_TEXT)
        assert load_study(path).compute_hash == mc_spec().compute_hash

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(MC_TEXT)
        with pytest.raises(ConfigurationError, match="yaml"):
            load_study(path)

    def test_case_order_is_cartesian_last_axis_fastest(self):
        cases = mc_spec().cases()
        assert [(c["sigma_db"], c["isd_m"]) for c in cases] == [
            (2.0, 2000.0), (2.0, 2400.0), (4.0, 2000.0), (4.0, 2400.0)]
        assert all(c["trials"] == 12 for c in cases)

    @pytest.mark.parametrize("mutation, match", [
        ({"engine": "warp"}, "unknown engine"),
        ({"axes": {}}, "no sweep axes"),
        ({"axes": {"sigma_db": []}}, "is empty"),
        ({"axes": {"bogus_param": [1.0]}}, "does not accept"),
        ({"axes": {"sigma_db": [2.0]}, "fixed": {"sigma_db": 4.0}},
         "both as an axis"),
        ({"metrics": ["nope"]}, "unknown metrics"),
        ({"derived": {"outage_probability": "1 + 1"}}, "collides"),
        ({"derived": {"x": "unknown_metric + 1"}}, "references"),
        ({"derived": {"x": "__import__('os')"}}, "not allowed"),
        ({"derived": {"x": "1 +"}}, "does not parse"),
        ({"seed": "abc"}, "integer"),
        ({"seed_mode": "chaos"}, "seed_mode"),
        ({"frobnicate": 1}, "unknown study keys"),
    ])
    def test_validation_errors(self, mutation, match):
        import yaml

        document = yaml.safe_load(MC_TEXT)
        document.update(mutation)
        with pytest.raises(ConfigurationError, match=match):
            parse_study(yaml.safe_dump(document))

    def test_missing_required_param(self):
        with pytest.raises(ConfigurationError, match="requires"):
            parse_study("""
name: x
engine: sim
axes:
  headway_s: [450.0]
""")

    def test_compute_hash_ignores_derived_and_metrics(self):
        spec = mc_spec()
        assert replace(spec, derived=(), description="other").compute_hash \
            == spec.compute_hash
        assert replace(spec, seed=8).compute_hash != spec.compute_hash
        assert replace(spec, fixed=spec.fixed[:-1]).compute_hash \
            != spec.compute_hash

    def test_case_seed_modes(self):
        shared = mc_spec()
        assert [shared.case_seed(i) for i in range(4)] == [7, 7, 7, 7]
        per_case = replace(shared, seed_mode="per-case")
        seeds = [per_case.case_seed(i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [per_case.case_seed(i) for i in range(4)]

    def test_with_overrides(self):
        spec = mc_spec().with_overrides(trials=5)
        assert dict(spec.fixed)["trials"] == 5
        assert spec.case_count == 4


class TestExpressions:
    def test_arithmetic_and_functions(self):
        env = {"a": 9.0, "b": 2.0}
        assert compile_expression("sqrt(a) + b ** 2")(env) == 7.0
        assert compile_expression("a if a > b else b")(env) == 9.0
        assert compile_expression("min(a, b) / max(a, b)")(env) == 2.0 / 9.0

    @pytest.mark.parametrize("bad", [
        "__import__('os').system('x')",
        "a.__class__",
        "[x for x in (1,)]",
        "lambda: 1",
        "open('f')",
        "'str' + 'cat'",
        "a @ b",
    ])
    def test_rejects_unsafe_syntax(self, bad):
        with pytest.raises(ConfigurationError):
            compile_expression(bad)

    def test_unknown_name_at_eval(self):
        evaluate = compile_expression("nope + 1")
        with pytest.raises(ConfigurationError, match="unknown name"):
            evaluate({"a": 1.0})

    def test_each_formula_parses_once_per_process(self, monkeypatch):
        # A spec load validates each formula and reads its names, and every
        # table build compiles it again: all of them share one parse.
        parsed = []
        parse = ast.parse

        def spy(source, *args, **kwargs):
            parsed.append(source)
            return parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", spy)
        expressions._validated_tree.cache_clear()
        for seed in (1, 2):
            spec = load_study(STUDIES_DIR / "robustness_grid.yaml")
            run_study(replace(spec, seed=seed), shards=2)
        formulas = sorted(text for _, text in spec.derived)
        assert len(formulas) == 2
        assert sorted(text for text in parsed if text in formulas) == formulas


# -- runner: sharding, parallelism, resume ------------------------------------


class TestRunner:
    def test_shard_ranges_balanced(self):
        assert shard_ranges(10, 3) == [(0, 3), (3, 7), (7, 10)]
        assert shard_ranges(2, 5) == [(0, 1), (1, 2)]
        with pytest.raises(ConfigurationError):
            shard_ranges(0, 1)

    def test_shard_count_invariance_bit_identical(self):
        spec = mc_spec()
        tables = [run_study(spec, shards=k).table for k in (1, 2, 4)]
        reference = tables[0].long()
        for table in tables[1:]:
            assert table.long() == reference

    def test_process_pool_matches_inline(self):
        spec = mc_spec()
        inline = run_study(spec, jobs=1, shards=4).table.long()
        pooled = run_study(spec, jobs=2, shards=4).table.long()
        assert pooled == inline

    def test_seed_mode_changes_stochastic_results(self):
        spec = mc_spec()
        shared = run_study(spec).table.wide()
        per_case = run_study(replace(spec, seed_mode="per-case")).table.wide()
        assert shared["outage_probability"] != per_case["outage_probability"]

    def test_resume_from_partial_equals_fresh_run(self, tmp_path):
        spec = mc_spec()
        fresh = run_study(spec, shards=4).table

        store = StudyStore(cache_dir=tmp_path / "store")
        partial = run_study(spec, shards=4, store=store, max_shards=2)
        assert partial.partial
        assert partial.computed_shards == 2
        assert len(partial.table) == 2  # half the cases

        # a new store instance (fresh process equivalent) resumes from disk
        resumed = run_study(spec, shards=4,
                            store=StudyStore(cache_dir=tmp_path / "store"))
        assert not resumed.partial
        assert resumed.reused_shards == 2
        assert resumed.computed_shards == 2
        assert resumed.table.long() == fresh.long()

        # a third run is served entirely from the store, still identical
        replayed = run_study(spec, shards=4,
                             store=StudyStore(cache_dir=tmp_path / "store"))
        assert replayed.reused_shards == 4
        assert replayed.table.long() == fresh.long()

    def test_store_survives_string_axes(self, tmp_path):
        spec = parse_study("""
name: solar-tiny
engine: solar
seed: 2022
axes:
  location: [madrid, berlin]
fixed:
  pv_peak_w: 540.0
  battery_wh: 720.0
""")
        store = StudyStore(cache_dir=tmp_path)
        first = run_study(spec, shards=2, store=store).table
        resumed = run_study(spec, shards=2,
                            store=StudyStore(cache_dir=tmp_path)).table
        assert resumed.long() == first.long()
        assert resumed.wide()["location"] == ["madrid", "berlin"]

    def test_progress_heartbeat(self):
        beats = []
        run_study(mc_spec(), shards=4,
                  progress=lambda k, n, label: beats.append((k, n)))
        assert beats == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_engine_error_propagates(self):
        spec = parse_study("""
name: bad-location
engine: solar
axes:
  location: [atlantis]
fixed:
  pv_peak_w: 540.0
  battery_wh: 720.0
""")
        with pytest.raises(ConfigurationError, match="atlantis"):
            run_study(spec)


# -- results table ------------------------------------------------------------


class TestResults:
    def test_long_and_wide_layouts(self):
        table = run_study(mc_spec()).table
        wide = table.wide()
        long = table.long()
        metrics = list(table.metric_names)
        assert "outage_pct" in metrics  # derived metric lands in the table
        assert len(long["case"]) == len(wide["case"]) * len(metrics)
        assert long["metric"][:len(metrics)] == metrics
        # long rows reconstruct the wide cells
        assert long["value"][metrics.index("outage_pct")] \
            == wide["outage_pct"][0]

    def test_metric_filter(self):
        spec = replace(mc_spec(), metrics=("outage_probability",))
        table = run_study(spec).table
        assert table.metric_names == ("outage_probability", "outage_pct")
        assert set(table.wide()) == {"case", "sigma_db", "isd_m",
                                     "outage_probability", "outage_pct"}

    def test_csv_and_json_writers(self, tmp_path):
        table = run_study(mc_spec()).table
        csv_path = table.write_csv(tmp_path / "out.csv")
        header = csv_path.read_text().splitlines()[0]
        assert header == "case,sigma_db,isd_m,metric,value"
        wide_path = table.write_csv(tmp_path / "wide.csv", layout="wide")
        assert wide_path.read_text().splitlines()[0].startswith(
            "case,sigma_db,isd_m,outage_probability")
        document = json.loads(table.write_json(tmp_path / "o.json").read_text())
        assert document["study"] == "mc-tiny"
        assert len(document["rows"]) == 4
        with pytest.raises(ConfigurationError):
            table.write_csv(tmp_path / "x.csv", layout="diagonal")

    def test_json_metadata_embedded(self, tmp_path):
        table = run_study(mc_spec()).table
        plain = json.loads(table.write_json(tmp_path / "p.json").read_text())
        assert "metadata" not in plain
        tagged = json.loads(table.write_json(
            tmp_path / "t.json", metadata={"workers": 3}).read_text())
        assert tagged["metadata"] == {"workers": 3}
        assert tagged["rows"] == plain["rows"]

    def test_json_nan_becomes_null(self, tmp_path):
        spec = parse_study("""
name: sim-nan
engine: sim
axes:
  policy: [sleep]
fixed:
  isd_m: 2400.0
  headway_s: 900.0
  trains_per_day: 200.0
  realizations: 1
""")
        table = run_study(spec).table
        document = json.loads(table.write_json(tmp_path / "o.json").read_text())
        assert document["rows"][0]["mean_w_per_km"] is None
        assert document["rows"][0]["feasible"] == 0

    def test_undefined_derived_metric_is_nan(self):
        table = run_study(parse_study(UNDEFINED_DERIVED_TEXT)).table
        wide = table.wide()
        assert wide["feasible"] == [1, 0, 1, 0]
        nan = [math.isnan(v) for v in wide["inv"]]
        assert nan == [False, True, False, True]
        assert [math.isnan(v) for v in wide["lg"]] == nan
        assert [math.isnan(v) for v in wide["big"]] == [True, False] * 2
        assert wide["twice"] == [2 * m for m in wide["margin_db"]]


# -- engine adapters ----------------------------------------------------------


class TestEngines:
    def test_registry_covers_five_engines(self):
        assert set(STUDY_ENGINES) == {"radio", "solar", "mc", "sim",
                                      "network"}
        for adapter in STUDY_ENGINES.values():
            assert adapter.metrics
            assert adapter.required <= set(adapter.params)

    def test_radio_matches_scalar_path(self):
        from oracles.radio import compute_snr_profile
        from repro.corridor.layout import CorridorLayout

        spec = parse_study("""
name: radio-check
engine: radio
axes:
  isd_m: [2200.0]
fixed:
  n_repeaters: 6
  resolution_m: 10.0
""")
        row = run_study(spec).table.wide()
        profile = compute_snr_profile(
            CorridorLayout.with_uniform_repeaters(2200.0, 6), resolution_m=10.0)
        assert row["min_snr_db"][0] == profile.min_snr_db
        assert row["mean_snr_db"][0] == profile.mean_snr_db

    def test_radio_cartesian_expansion(self):
        from oracles.radio import compute_snr_profile
        from repro.corridor.layout import CorridorLayout
        from repro.radio.link import LinkParams

        hp = LinkParams().hp_eirp_dbm
        spec = parse_study(f"""
name: radio-grid
engine: radio
axes:
  isd_m: [1000.0, 1500.0]
  n_repeaters: [0, 2]
  hp_eirp_dbm: [{hp}, {hp + 3.0}]
fixed:
  resolution_m: 10.0
""")
        wide = run_study(spec).table.wide()
        assert len(wide["min_snr_db"]) == 2 * 2 * 2
        for i, case in enumerate(spec.cases()):
            profile = compute_snr_profile(
                CorridorLayout.with_uniform_repeaters(case["isd_m"],
                                                      case["n_repeaters"]),
                LinkParams(hp_eirp_dbm=case["hp_eirp_dbm"]),
                resolution_m=10.0)
            assert wide["min_snr_db"][i] == profile.min_snr_db
        assert set(wide["hp_eirp_dbm"]) == {hp, hp + 3.0}

    def test_radio_threshold_only_cases_share_one_profile(self, monkeypatch):
        import repro.radio.batch as radio_batch

        evaluated = []
        original = radio_batch.evaluate_scenarios

        def spy(scenarios, **kwargs):
            evaluated.extend(scenarios)
            return original(scenarios, **kwargs)

        monkeypatch.setattr(radio_batch, "evaluate_scenarios", spy)
        spec = parse_study("""
name: radio-thresholds
engine: radio
axes:
  threshold_db: [20.0, 29.0, 40.0]
fixed:
  isd_m: 1250.0
  n_repeaters: 1
  resolution_m: 10.0
""")
        wide = run_study(spec).table.wide()
        assert len(evaluated) == 1
        assert len(set(wide["min_snr_db"])) == 1
        assert wide["feasible"] == [1, 1, 0]
        assert wide["margin_db"] == [wide["min_snr_db"][0] - t
                                     for t in (20.0, 29.0, 40.0)]

    def test_radio_isd_ladder_registers_the_bisection_maximum(self):
        # The paper's scan as a study: the largest feasible rung of the
        # candidate ladder is the maximum ISD the bisection registers.
        from repro.optimize.isd import isd_candidates, max_isd_for_n

        ladder = isd_candidates(2, isd_max_m=2000.0).tolist()
        spec = parse_study(f"""
name: radio-ladder
engine: radio
axes:
  isd_m: {ladder}
fixed:
  n_repeaters: 2
  resolution_m: 5.0
""")
        wide = run_study(spec).table.wide()
        feasible = [isd for isd, ok in zip(wide["isd_m"], wide["feasible"])
                    if ok]
        assert max(feasible) == max_isd_for_n(2, resolution_m=5.0)[0]

    def test_radio_geometry_that_does_not_fit_raises(self):
        from repro.errors import GeometryError

        # 8 nodes span 1400 m: they do not fit a 1000 m segment.
        spec = parse_study("""
name: radio-misfit
engine: radio
axes:
  isd_m: [1000.0, 2000.0]
fixed:
  n_repeaters: 8
  resolution_m: 10.0
""")
        with pytest.raises(GeometryError):
            run_study(spec)

    def test_mc_scalar_oracle_identical(self):
        # A study runs the batched engine; the per-trial scalar oracle
        # agrees with the study on every case.
        from oracles.mc import outage_matrix_scalar
        from repro.corridor.layout import CorridorLayout
        from repro.optimize.mc import OutageMatrix
        from repro.propagation.fading import LogNormalShadowing
        from repro.radio.batch import evaluate_scenarios
        from repro.scenario.spec import Scenario

        spec = mc_spec()
        batched = run_study(spec).table.wide()
        for i, case in enumerate(spec.cases()):
            case = STUDY_ENGINES["mc"].resolve(case)
            layout = CorridorLayout.with_uniform_repeaters(
                case["isd_m"], case["n_repeaters"], case["spacing_m"])
            profile, = evaluate_scenarios(
                [Scenario(layout=layout, resolution_m=case["resolution_m"])])
            scalar = OutageMatrix(outage_matrix_scalar(
                [profile], LogNormalShadowing(
                    sigma_db=case["sigma_db"],
                    decorrelation_m=case["decorrelation_m"]),
                case["trials"], spec.case_seed(i)),
                threshold_db=case["threshold_db"], seed=spec.case_seed(i))
            assert batched["outage_probability"][i] == \
                scalar.outage_probability[0]
            assert batched["median_min_snr_db"][i] == scalar.quantile(0.5)[0]

    def test_scalar_engine_is_not_a_study_parameter(self):
        for engine in ("mc", "sim", "network"):
            assert "engine" not in STUDY_ENGINES[engine].params

    def test_context_is_the_same_inline_and_in_workers(self, tmp_path):
        # The whole context crosses the process boundary: pooled workers
        # persist their profiles under the context's cache_dir.
        spec = mc_spec()
        pooled = run_study(spec, jobs=2, shards=2,
                           context={"cache_dir": str(tmp_path / "pool")})
        assert list((tmp_path / "pool").glob("*.bundle"))
        inline = run_study(spec, shards=2,
                           context={"cache_dir": str(tmp_path / "inline")})
        assert pooled.table.wide() == inline.table.wide()

    def test_sim_unknown_policy_rejected(self):
        spec = parse_study("""
name: sim-bad
engine: sim
axes:
  policy: [warp-drive]
fixed:
  isd_m: 2400.0
  headway_s: 450.0
  trains_per_day: 76.0
  realizations: 1
""")
        with pytest.raises(ConfigurationError, match="warp-drive"):
            run_study(spec)


# -- shipped studies vs the engines they route to ------------------------------


class TestExperimentParity:
    def test_robustness_grid_matches_stacked_outage_matrix(self):
        """Pin the per-case routing against the pre-refactor stacked sweep.

        The old implementation evaluated every ISD candidate in ONE
        outage_matrix call per (sigma, decorrelation) cell; the study route
        evaluates one candidate per case.  CRN seeding makes the two
        bit-identical — this is the regression guard for that property.
        """
        from repro.corridor.layout import CorridorLayout
        from repro.optimize.mc import outage_matrix
        from repro.propagation.fading import LogNormalShadowing
        from repro.radio.batch import evaluate_scenarios
        from repro.scenario.spec import Scenario

        isds = (2000.0, 2200.0, 2400.0)
        sigmas, decorrs, trials = (2.0, 4.0), (50.0,), 15
        spec = replace(load_study(STUDIES_DIR / "robustness_grid.yaml"), axes=(
            ("sigma_db", sigmas), ("decorrelation_m", decorrs),
            ("isd_m", isds),
        )).with_overrides(trials=trials)
        columns = run_study(spec).table.wide()
        routed = list(zip(*(columns[name] for name in (
            "sigma_db", "decorrelation_m", "isd_m", "outage_probability",
            "outage_ci95_low", "outage_ci95_high", "median_min_snr_db"))))
        profiles = evaluate_scenarios(
            [Scenario(layout=CorridorLayout.with_uniform_repeaters(isd, 8),
                      resolution_m=10.0) for isd in isds])
        stacked = []
        for sigma in sigmas:
            for decorr in decorrs:
                matrix = outage_matrix(
                    profiles, LogNormalShadowing(sigma_db=sigma,
                                                 decorrelation_m=decorr),
                    trials=trials, seed=spec.seed)
                low, high = matrix.ci95()
                median = matrix.quantile(0.5)
                for c, isd in enumerate(isds):
                    stacked.append((sigma, decorr, isd,
                                    float(matrix.outage_probability[c]),
                                    float(low[c]), float(high[c]),
                                    float(median[c])))
        assert routed == stacked

    def test_table4_grid_series_parity(self):
        from repro.solar.batch import simulate_systems
        from repro.solar.battery import Battery
        from repro.solar.climates import LOCATIONS
        from repro.solar.offgrid import OffGridSystem
        from repro.solar.pv import PvArray

        pv, wh = (540.0,), (720.0, 1440.0)
        spec = replace(load_study(STUDIES_DIR / "table4_grid.yaml"), axes=(
            ("location", ("madrid", "lyon", "vienna", "berlin")),
            ("pv_peak_w", pv), ("battery_wh", wh),
        ))
        table = run_study(spec, shards=3).table.wide()
        # The whole location x candidate grid in one batched pass.
        direct = simulate_systems([
            OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=p),
                          battery=Battery(capacity_wh=w), seed=spec.seed)
            for key in ("madrid", "lyon", "vienna", "berlin")
            for p in pv for w in wh])
        assert table["zero_downtime"] == [int(r.zero_downtime) for r in direct]
        for column in ("unmet_hours", "full_battery_days_pct",
                       "annual_pv_kwh"):
            assert table[column] == [getattr(r, column) for r in direct], \
                column

    def test_shipped_yaml_files_load(self):
        by_name = {}
        for path in sorted(STUDIES_DIR.glob("*.yaml")):
            spec = load_study(path)
            by_name[spec.name] = spec
        assert set(by_name) == {"sim-grid-demand", "robustness-grid",
                                "table4-grid", "national-network"}
        for spec in by_name.values():
            for case in spec.cases():
                STUDY_ENGINES[spec.engine].resolve(case)  # raises if invalid

    def test_shipped_sim_yaml_runs_end_to_end(self):
        """Acceptance: the (ISD x trains/day x policy) study end to end."""
        spec = load_study(STUDIES_DIR / "sim_grid.yaml")
        assert spec.axis_names == ("isd_m", "trains_per_day", "policy")
        small = replace(
            spec,
            axes=(("isd_m", (1800.0, 2400.0)),
                  ("trains_per_day", (76.0,)),
                  ("policy", ("continuous", "sleep", "solar"))),
        ).with_overrides(realizations=2)
        one = run_study(small, shards=1).table
        many = run_study(small, shards=5).table
        assert one.long() == many.long()
        assert "bias_pct" in one.metric_names


# -- CLI ----------------------------------------------------------------------


class TestStudyCli:
    def _write(self, tmp_path) -> Path:
        path = tmp_path / "tiny.yaml"
        path.write_text(MC_TEXT)
        return path

    def test_run_smoke_with_outputs(self, tmp_path, capsys):
        path = self._write(tmp_path)
        code = main(["study", "run", str(path),
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json"),
                     "--store", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mc-tiny" in out
        assert (tmp_path / "out.csv").exists()
        assert json.loads((tmp_path / "out.json").read_text())["engine"] == "mc"

    def test_run_json_has_no_metadata(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert main(["study", "run", str(path), "--quiet",
                     "--json", str(tmp_path / "out.json")]) == 0
        document = json.loads((tmp_path / "out.json").read_text())
        assert "metadata" not in document

    @pytest.mark.parametrize("command,required", [
        ("run", []), ("resume", []), ("shard", ["--index", "0", "--of", "1"]),
        ("refresh", ["--previous", "x.yaml", "--store", "s"])],
        ids=["run", "resume", "shard", "refresh"])
    def test_backend_and_force_flags_are_gone(self, command, required,
                                              capsys):
        with pytest.raises(SystemExit):
            main(["study", command, "--help"])
        usage = capsys.readouterr().out
        assert "--backend" not in usage and "--force" not in usage
        with pytest.raises(SystemExit) as excinfo:
            main(["study", command, "x.yaml", *required,
                  "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_scalar_engine_study_fails_to_load(self, tmp_path, capsys):
        path = tmp_path / "scalar.yaml"
        path.write_text(MC_TEXT.replace(
            "  resolution_m: 50.0\n",
            "  resolution_m: 50.0\n  engine: scalar\n"))
        assert main(["study", "run", str(path), "--quiet"]) == 2
        assert "does not accept ['engine']" in capsys.readouterr().err

    def test_undefined_derived_metric_does_not_abort_the_run(self, tmp_path,
                                                            capsys):
        path = tmp_path / "undefined.yaml"
        path.write_text(UNDEFINED_DERIVED_TEXT)
        store = tmp_path / "store"
        code = main(["study", "run", str(path), "--quiet",
                     "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json"),
                     "--store", str(store)])
        assert code == 0, capsys.readouterr().err
        rows = json.loads((tmp_path / "out.json").read_text())["rows"]
        assert [row["inv"] for row in rows] == [1.0, None, 1.0, None]
        assert [row["lg"] for row in rows] == [0.0, None, 0.0, None]
        assert [row["big"] for row in rows] == [None, 1.0, None, 1.0]
        assert "1,1500.0,60.0,inv,nan" in (tmp_path / "out.csv").read_text()
        events = [e["event"] for e in read_journal(store / "run.jsonl")]
        assert events[-1] == "run_end"

    def test_resume_requires_store(self, tmp_path):
        path = self._write(tmp_path)
        with pytest.raises(SystemExit):
            main(["study", "resume", str(path)])

    def test_resume_completes_partial(self, tmp_path, capsys):
        path = self._write(tmp_path)
        store = str(tmp_path / "store")
        code = main(["study", "run", str(path), "--store", store,
                     "--max-shards", "1", "--shards", "4", "--quiet"])
        assert code == 3  # partial
        code = main(["study", "resume", str(path), "--store", store,
                     "--shards", "4"])
        assert code == 0
        err = capsys.readouterr().err
        assert "reused from store" in err
        assert "1 reused, 3 computed" in err

    def test_max_shards_zero_yields_empty_partial_table(self, tmp_path):
        spec = mc_spec()
        report = run_study(spec, shards=4, max_shards=0)
        assert report.partial and report.computed_shards == 0
        assert len(report.table) == 0
        assert report.table.long()["case"] == []
        path = self._write(tmp_path)
        assert main(["study", "run", str(path), "--max-shards", "0",
                     "--quiet", "--csv", str(tmp_path / "e.csv")]) == 3

    def test_list(self, capsys):
        assert main(["study", "list", str(STUDIES_DIR)]) == 0
        out = capsys.readouterr().out
        assert "sim_grid.yaml" in out
        assert "27 cases" in out

    def test_list_empty_dir(self, tmp_path):
        assert main(["study", "list", str(tmp_path)]) == 1

    def test_bad_study_file(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("name: x\nengine: nope\naxes:\n  isd_m: [1.0]\n")
        assert main(["study", "run", str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err


NETWORK_TEXT = """
name: net-tiny
engine: network
seed: 0
axes:
  cost_budget_keur_per_km: [0.0, 50.0, 125.0]
fixed:
  graph: demo
  resolution_m: 50.0
  energy_budget_w_per_km: 0.0
"""

NETWORK_TEXT_V2 = NETWORK_TEXT.replace("125.0]", "125.0, 150.0]")

#: sha256 of the long CSVs the tiny network study writes (one feasible and
#: one infeasible cost budget, plus the unconstrained cell).  ``run`` and
#: ``merge`` write the same table; ``refresh`` adds the 150 kEUR/km cell.
NETWORK_CSV_SHA256 = {
    "run": "e58b5c4be7ae949e732941c65e1043f42795149bd49cda84c326d9c897c987c0",
    "merge": "e58b5c4be7ae949e732941c65e1043f42795149bd49cda84c326d9c897c987c0",
    "refresh": "753a56ce588fa266d34ea632214b923a22ef5d880ec34e4a8ff0ccacc430131d",
}


class TestSharedOutputFlags:
    """``run``, ``resume``, ``shard``, ``merge`` and ``refresh`` take the
    same output flags and report through one path."""

    REQUIRED = {
        "run": [], "resume": ["--store", "s"],
        "shard": ["--index", "0", "--of", "1", "--store", "s"],
        "merge": ["m.json"],
        "refresh": ["--previous", "p.yaml", "--store", "s"],
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_accepts_the_shared_flags(self, command):
        from repro.cli import build_study_parser

        args = build_study_parser().parse_args([
            command, "x.yaml", *self.REQUIRED[command],
            "--cache-dir", "c", "--csv", "t.csv", "--layout", "wide",
            "--json", "t.json", "--quiet"])
        assert (args.cache_dir, args.csv, args.layout, args.json,
                args.quiet) == ("c", "t.csv", "wide", "t.json", True)

    @pytest.mark.parametrize("command", ["run", "merge", "refresh"])
    def test_writes_the_same_csv_bytes(self, command, tmp_path, capsys):
        v1 = tmp_path / "v1.yaml"
        v1.write_text(NETWORK_TEXT)
        store = str(tmp_path / "store")
        out = tmp_path / "out.csv"
        if command == "merge":
            manifests = []
            for worker in range(2):
                manifest = tmp_path / f"w{worker}" / "manifest.json"
                assert main(["study", "shard", str(v1), "--quiet",
                             "--index", str(worker), "--of", "2",
                             "--shards", "2", "--store",
                             str(manifest.parent),
                             "--manifest", str(manifest)]) == 0
                manifests.append(str(manifest))
            argv = ["merge", str(v1), *manifests]
        elif command == "refresh":
            assert main(["study", "run", str(v1), "--quiet",
                         "--store", store]) == 0
            v2 = tmp_path / "v2.yaml"
            v2.write_text(NETWORK_TEXT_V2)
            argv = ["refresh", str(v2), "--previous", str(v1),
                    "--store", store]
        else:
            argv = ["run", str(v1), "--store", store]
        assert main(["study", *argv, "--quiet", "--csv", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == NETWORK_CSV_SHA256[command]


# -- store guards (ISSUE-10 satellites) ---------------------------------------


class TestRunMetadata:
    """A store records which study and ``repro`` version wrote its rows."""

    def _seed_store(self, tmp_path):
        # Two runs, two bundles: shard 0, then shards 1-3.
        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store, max_shards=1)
        run_study(spec, shards=4, store=store)
        return spec, store

    def test_run_metadata_records_study_hash_and_version(self, tmp_path):
        from repro import __version__

        spec, store = self._seed_store(tmp_path)
        assert store.run_record(spec).header == {
            "study": spec.name, "compute_hash": spec.compute_hash,
            "version": __version__}

    def test_resume_rewrites_an_older_record(self, tmp_path):
        # A record whose header still carries a backend field resumes like
        # any other; a new header is appended when shards are added.
        spec, store = self._seed_store(tmp_path)
        path = tmp_path / "store" / f"{spec.compute_hash[:40]}-run.jsonl"
        with path.open("a") as record:
            record.write(json.dumps(dict(store.run_record(spec).header,
                                         backend="reference")) + "\n")
        key, _, _ = store.run_record(spec).shards[(0, 1)]
        store.bundle_path(key).unlink()
        fresh = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        report = run_study(spec, shards=4, store=fresh)
        assert report.computed_shards == 1 and report.reused_shards == 3
        assert "backend" not in fresh.run_record(spec).header


class TestStoreListing:
    """No run lists the store: the layout check reads the run record."""

    @pytest.fixture
    def listed(self, monkeypatch):
        """Count the directory entries every ``os.scandir`` yields."""
        import os

        class Listing(list):
            """The entries, usable like the ``os.scandir`` iterator."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def close(self):
                pass

        counts = []
        scandir = os.scandir

        def counted(*args, **kwargs):
            with scandir(*args, **kwargs) as entries:
                listing = Listing(entries)
            counts.append(len(listing))
            return listing

        monkeypatch.setattr(os, "scandir", counted)
        return counts

    def _busy_store(self, tmp_path):
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        for seed in range(20):   # 20 foreign specs, 80 bundles
            run_study(replace(mc_spec(), seed=100 + seed), shards=4,
                      store=store)
        return store

    def test_a_fresh_spec_lists_no_entries(self, tmp_path, listed):
        store = self._busy_store(tmp_path)
        listed.clear()
        report = run_study(mc_spec(), shards=4, store=store)
        assert report.computed_shards == 4
        assert sum(listed) == 0

    def test_a_recorded_spec_lists_no_entries(self, tmp_path, listed):
        # A repeated run reads its shards through the run record.
        store = self._busy_store(tmp_path)
        run_study(mc_spec(), shards=4, store=store)
        listed.clear()
        report = run_study(mc_spec(), shards=4, store=store)
        assert report.reused_shards == 4
        assert sum(listed) == 0


class TestLayoutMismatchWarning:
    def test_layout_mismatch_warns_once_per_process(self, tmp_path):
        import repro.study.runner as runner_mod

        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store)
        runner_mod._WARNED_LAYOUTS.clear()
        # Two runs rediscovering the same mismatch (max_shards=0 keeps the
        # store unchanged between them): exactly one warning, naming both
        # layouts -- not one line of spam per call.
        with pytest.warns(RuntimeWarning,
                          match="different shard layout") as record:
            run_study(spec, shards=2, store=store, max_shards=0)
            run_study(spec, shards=2, store=store, max_shards=0)
        layout_warnings = [w for w in record
                           if "different shard layout" in str(w.message)]
        assert len(layout_warnings) == 1
        message = str(layout_warnings[0].message)
        assert "4 shards" in message and "2-shard layout" in message

    def test_matching_layout_never_warns(self, tmp_path, recwarn):
        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store)
        run_study(spec, shards=4, store=store)
        assert not [w for w in recwarn
                    if issubclass(w.category, RuntimeWarning)]
