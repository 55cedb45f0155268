"""In-text result — registered maximum ISDs for N = 1..10 repeater nodes.

Paper: {1250, 1450, 1600, 1800, 1950, 2100, 2250, 2400, 2500, 2650} m.
The experiment reruns the sweep under a selectable repeater-noise model and
reports model-vs-paper deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.optimize.isd import IsdSweepResult, sweep_max_isd
from repro.radio.link import LinkParams
from repro.radio.noise import RepeaterNoiseModel
from repro.reporting.tables import format_table
from repro.scenario.cache import ProfileCache

__all__ = ["MaxIsdResult", "run_maxisd"]


@dataclass(frozen=True)
class MaxIsdResult:
    """Sweep outcome with paper comparison."""

    sweep: IsdSweepResult
    noise_model: RepeaterNoiseModel

    @property
    def model_list(self) -> list[float]:
        return self.sweep.as_list()

    @property
    def paper_list(self) -> tuple[float, ...]:
        return constants.PAPER_MAX_ISD_M

    @property
    def total_abs_error_m(self) -> float:
        return float(sum(abs(a - b) for a, b in zip(self.model_list, self.paper_list)))

    def series(self) -> dict[str, list]:
        n = list(range(1, len(self.model_list) + 1))
        return {
            "n_repeaters": n,
            "model_max_isd_m": self.model_list,
            "paper_max_isd_m": list(self.paper_list[:len(n)]),
            "min_snr_db": [self.sweep.min_snr_by_n[k] for k in n],
        }

    def table(self) -> str:
        rows = []
        for i, n in enumerate(range(1, len(self.model_list) + 1)):
            model = self.model_list[i]
            paper = self.paper_list[i]
            rows.append([n, model, paper, model - paper,
                         self.sweep.min_snr_by_n[n]])
        return format_table(
            ["N", "model ISD [m]", "paper ISD [m]", "delta [m]", "min SNR [dB]"],
            rows,
            title=(f"Max ISD sweep ({self.noise_model.value} noise model, "
                   f"threshold {self.sweep.threshold_db:.2f} dB)"))


def run_maxisd(noise_model: RepeaterNoiseModel = RepeaterNoiseModel.PAPER,
               n_max: int = 10,
               resolution_m: float = 1.0,
               isd_step_m: float = constants.ISD_STEP_M,
               cache: ProfileCache | None = None,
               jobs: int | None = None) -> MaxIsdResult:
    """Run the Section V sweep under the requested noise model.

    ``cache`` and ``jobs`` forward to
    :func:`repro.optimize.isd.sweep_max_isd`.
    """
    link = LinkParams(repeater_noise_model=noise_model)
    sweep = sweep_max_isd(n_max=n_max, link=link, include_zero=False,
                          resolution_m=resolution_m, isd_step_m=isd_step_m,
                          cache=cache, jobs=jobs)
    return MaxIsdResult(sweep=sweep, noise_model=noise_model)
