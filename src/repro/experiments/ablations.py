"""Ablation experiments — design-choice studies beyond the paper's figures.

* noise-model ablation: how the max-ISD list changes between the literal
  Eq. (2) repeater-noise term and the amplify-and-forward fronthaul models,
* placement ablation: centered 200 m spacing vs. equal division vs. optimized
  placement,
* sleep ablation: energy effect of wake latency and detection lead in the
  event-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.energy.scenario import OperatingMode
from repro.errors import ConfigurationError, InfeasibleError
from repro.optimize.placement import optimize_placement
from repro.radio.batch import evaluate_scenarios
from repro.radio.link import LinkParams
from repro.radio.noise import RepeaterNoiseModel
from repro.reporting.tables import format_table
from repro.scenario.cache import ProfileCache
from repro.scenario.spec import Scenario
from repro.optimize.isd import sweep_max_isd

__all__ = [
    "NoiseAblationResult",
    "run_noise_ablation",
    "PlacementAblationResult",
    "run_placement_ablation",
    "SleepAblationResult",
    "run_sleep_ablation",
]


# --- noise-model ablation ------------------------------------------------------

@dataclass(frozen=True)
class NoiseAblationResult:
    lists: dict[str, list[float]]
    #: Optional robustness overlay: model -> {sigma_db -> robust max ISD at
    #: n_max}, computed through the Monte-Carlo engine when ``sigmas`` is
    #: passed to :func:`run_noise_ablation`.
    robust: dict[str, dict[float, float]] | None = None

    def _n_count(self) -> int:
        return min(len(values) for values in self.lists.values())

    @staticmethod
    def _registered(index: int) -> float:
        """Registered paper maximum for row ``index``; NaN past the list."""
        if index < len(constants.PAPER_MAX_ISD_M):
            return float(constants.PAPER_MAX_ISD_M[index])
        return float("nan")

    def series(self) -> dict[str, list]:
        n_count = self._n_count()
        out: dict[str, list] = {"n_repeaters": list(range(1, n_count + 1))}
        out.update({name: values[:n_count] for name, values in self.lists.items()})
        # "paper" is already taken by the literal Eq. (2) noise model
        # (RepeaterNoiseModel.PAPER.value); name the registered list apart so
        # it doesn't overwrite that column in the CSV export.
        out["paper_registered"] = [self._registered(i) for i in range(n_count)]
        if self.robust:
            # Flatten the (model x sigma) robust overlay into constant
            # columns so the CSV export carries it too.
            for name, per_model in self.robust.items():
                for sigma, isd in per_model.items():
                    out[f"robust_{name}_sigma_{sigma:g}db"] = [isd] * n_count
        return out

    def table(self) -> str:
        headers = ["N"] + list(self.lists) + ["paper_registered"]
        rows = []
        for i in range(self._n_count()):
            row = [i + 1] + [self.lists[k][i] for k in self.lists]
            row.append(self._registered(i))
            rows.append(row)
        out = format_table(headers, rows, title="Ablation: repeater-noise models")
        if self.robust:
            sigmas = sorted({s for per_model in self.robust.values()
                             for s in per_model})
            robust_rows = [[name] + [per_model[s] for s in sigmas]
                           for name, per_model in self.robust.items()]
            out += "\n" + format_table(
                ["model"] + [f"sigma {s:g} dB" for s in sigmas], robust_rows,
                title="Robust max ISD under shadowing (Monte-Carlo engine)")
        return out


def run_noise_ablation(n_max: int = 10, resolution_m: float = 2.0,
                       isd_step_m: float = 50.0,
                       cache: ProfileCache | None = None,
                       jobs: int | None = None,
                       sigmas=None, trials: int = 60,
                       robust_target_outage: float = 0.05) -> NoiseAblationResult:
    """Max-ISD list under each repeater-noise model.

    When ``sigmas`` is given (e.g. via the CLI's ``--sigmas``), the study also
    reports the *robust* maximum ISD of each noise model at ``n_max`` for each
    shadowing sigma — :func:`repro.optimize.robustness.robust_max_isd` through
    the vectorized Monte-Carlo engine with common random numbers, so the
    robust ISDs are comparable across noise models.
    """
    from repro.optimize.robustness import robust_max_isd
    from repro.propagation.fading import LogNormalShadowing

    if sigmas:
        # Validate the Monte-Carlo inputs eagerly so bad parameters fail
        # here, before the deterministic sweeps run, rather than masquerade
        # as infeasible cells in the search loop.
        if trials <= 0:
            raise ConfigurationError(f"trials must be positive, got {trials}")
        if not 0.0 < robust_target_outage < 1.0:
            raise ConfigurationError(
                f"target outage must be in (0,1), got {robust_target_outage}")
        shadowings = {float(sigma): LogNormalShadowing(sigma_db=float(sigma))
                      for sigma in sigmas}

    lists = {}
    robust: dict[str, dict[float, float]] = {}
    for model in (RepeaterNoiseModel.PAPER, RepeaterNoiseModel.FRONTHAUL_STAR,
                  RepeaterNoiseModel.FRONTHAUL_CHAIN):
        link = LinkParams(repeater_noise_model=model)
        sweep = sweep_max_isd(n_max=n_max, link=link, include_zero=False,
                              resolution_m=resolution_m, isd_step_m=isd_step_m,
                              cache=cache, jobs=jobs)
        lists[model.value] = sweep.as_list()
        if sigmas:
            # The deterministic ladder is identical across sigmas; a local
            # profile cache keeps it to one evaluation per noise model.
            robust_cache = cache if cache is not None else ProfileCache(maxsize=256)
            robust[model.value] = {}
            for sigma, shadowing in shadowings.items():
                try:
                    isd, _ = robust_max_isd(
                        n_max, target_outage=robust_target_outage,
                        shadowing=shadowing,
                        link=link, isd_step_m=isd_step_m, trials=trials,
                        resolution_m=resolution_m, cache=robust_cache,
                        jobs=jobs)
                except InfeasibleError:
                    # No candidate meets the outage target under this sigma —
                    # that infeasibility is itself the study's finding.
                    # Parameter errors (ConfigurationError) propagate.
                    isd = float("nan")
                robust[model.value][sigma] = isd
    return NoiseAblationResult(lists=lists, robust=robust or None)


# --- placement ablation ----------------------------------------------------------

@dataclass(frozen=True)
class PlacementAblationResult:
    isd_m: float
    n_repeaters: int
    centered_min_snr_db: float
    equal_division_min_snr_db: float
    optimized_min_snr_db: float
    optimized_positions_m: tuple[float, ...]

    def table(self) -> str:
        rows = [
            ["centered 200 m (paper)", self.centered_min_snr_db],
            ["equal division", self.equal_division_min_snr_db],
            ["grid-optimized", self.optimized_min_snr_db],
        ]
        return format_table(["placement", "min SNR [dB]"], rows,
                            title=f"Ablation: placement at ISD {self.isd_m:.0f} m, N={self.n_repeaters}")

    def series(self) -> dict[str, list]:
        return {
            "placement": ["centered", "equal_division", "optimized"],
            "min_snr_db": [self.centered_min_snr_db, self.equal_division_min_snr_db,
                           self.optimized_min_snr_db],
        }


def run_placement_ablation(isd_m: float = 2400.0, n_repeaters: int = 8,
                           link: LinkParams | None = None,
                           resolution_m: float = 2.0,
                           cache: ProfileCache | None = None) -> PlacementAblationResult:
    """Compare repeater placement strategies by worst-case SNR."""
    link = link or LinkParams()
    centered = CorridorLayout.with_uniform_repeaters(isd_m, n_repeaters)
    equal = CorridorLayout.with_equally_divided_repeaters(isd_m, n_repeaters)
    baselines = evaluate_scenarios(
        [Scenario(layout=lo, link=link, resolution_m=resolution_m)
         for lo in (centered, equal)], cache=cache)
    # The descent loop evaluates hundreds of one-off trial layouts; keep
    # those out of any disk-backed cache and let the optimizer use its
    # internal LRU instead.
    trial_cache = cache if cache is not None and cache.cache_dir is None else None
    opt = optimize_placement(isd_m, n_repeaters, link=link,
                             resolution_m=resolution_m, cache=trial_cache)
    return PlacementAblationResult(
        isd_m=isd_m,
        n_repeaters=n_repeaters,
        centered_min_snr_db=baselines[0].min_snr_db,
        equal_division_min_snr_db=baselines[1].min_snr_db,
        optimized_min_snr_db=opt.min_snr_db,
        optimized_positions_m=opt.layout.repeater_positions_m,
    )


# --- sleep/wake-latency ablation ---------------------------------------------------

@dataclass(frozen=True)
class SleepAblationResult:
    transitions_s: tuple[float, ...]
    w_per_km: tuple[float, ...]

    def table(self) -> str:
        rows = [[t, w] for t, w in zip(self.transitions_s, self.w_per_km)]
        return format_table(["transition [s]", "avg power [W/km]"], rows,
                            title="Ablation: wake-transition time (DES, sleep mode)")

    def series(self) -> dict[str, list]:
        return {"transition_s": list(self.transitions_s),
                "w_per_km": list(self.w_per_km)}


def run_sleep_ablation(isd_m: float = 2650.0, n_repeaters: int = 10,
                       transitions_s=(0.0, 0.3, 1.0, 2.0, 5.0)) -> SleepAblationResult:
    """Energy sensitivity to the sleep/active transition time."""
    from repro.simulation.batch import simulate_days

    layout = CorridorLayout.with_uniform_repeaters(isd_m, n_repeaters)
    results = tuple(
        float(simulate_days(layout, OperatingMode.SLEEP, transition_s=t,
                            wake_lead_m=max(50.0, t * 60.0)).avg_w_per_km[0])
        for t in transitions_s)
    return SleepAblationResult(transitions_s=tuple(transitions_s),
                               w_per_km=results)
