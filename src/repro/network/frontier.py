"""Per-segment technology frontiers of a whole graph, in one batched pass.

For every network segment and every candidate :class:`TechnologyOption` the
frontier holds three numbers — average energy [W], total cost over the
planning horizon [EUR], and feasibility — from which the optimizer
(:mod:`repro.network.optimize`) assigns technologies under global budgets.

:func:`segment_frontiers` makes one pass through
:func:`repro.radio.batch.evaluate_scenarios` over the *unique* candidate
layouts, one :func:`repro.energy.scenario.segment_energy` call per unique
(option, speed class, demand) combination, then numpy broadcasts over the
``[segment, option]`` grid.  No per-segment Python loop.

The reference is a per-segment walk that recomputes every quantity
segment by segment (the source-by-source scalar Eq. (2) oracle per option,
:func:`segment_energy` per cell): the test oracle
``tests/oracles/network.py``.  It shares the elementwise cost/energy
formulas below (they operate on floats and arrays alike), so parity is
bit-exact by construction and is pinned in ``tests/test_engine_parity.py``.

The sleep policy is demand-aware and option-independent (the topology-
control rule of Pollakis et al., arXiv 1503.08627): a segment may sleep iff
its mean headway is at least :attr:`TechnologyCatalog.min_sleep_headway_s`.
Eligible segments run every option in SLEEP (or SOLAR) mode; ineligible
segments run CONTINUOUS and their solar variants are infeasible.  Adding
demand only shrinks the eligible set — the monotonicity the property suite
asserts.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.baselines.onboard_relay import OnboardRelayFleet
from repro.corridor.layout import CorridorLayout
from repro.economics.costmodel import CostAssumptions
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode, segment_energy
from repro.errors import ConfigurationError
from repro.network.graph import SPEED_CLASSES, DemandProfile, NetworkGraph
from repro.radio.link import LinkParams
from repro.units import kmh_to_ms

__all__ = ["Technology", "TechnologyOption", "TechnologyCatalog",
           "SegmentFrontiers", "segment_frontiers"]

_DAY_S = 86_400.0
_HOURS_PER_YEAR_OVER_KWH = 24.0 * 365.0 / 1000.0


class Technology(enum.Enum):
    """The three per-segment deployment technologies the optimizer assigns.

    ``CONVENTIONAL``
        The dense HP-only macro grid (500 m ISD baseline).
    ``REPEATER``
        The paper's repeater-extended segments (out-of-band LP chain).
    ``MOBILE_RELAY``
        The mmWave onboard-relay alternative (arXiv 2210.09873): a sparse
        trackside grid plus active relays riding the trains
        (:class:`repro.baselines.onboard_relay.OnboardRelayFleet`).
    """

    CONVENTIONAL = "conventional"
    REPEATER = "repeater"
    MOBILE_RELAY = "mobile_relay"


@dataclass(frozen=True)
class TechnologyOption:
    """One concrete candidate: a technology, its layout, and powering.

    ``solar=True`` marks the off-grid variant (repeaters sleep *and* draw
    from PV instead of mains); it only exists for sleep-eligible segments.
    """

    technology: Technology
    layout: CorridorLayout
    solar: bool = False

    @property
    def label(self) -> str:
        """Short human-readable id, e.g. ``repeater@2400xN8+solar``."""
        tag = f"{self.technology.value}@{self.layout.isd_m:g}"
        if self.layout.n_repeaters:
            tag += f"xN{self.layout.n_repeaters}"
        if self.solar:
            tag += "+solar"
        return tag

    def mode(self, eligible: bool) -> OperatingMode:
        """Operating mode given the segment's sleep eligibility."""
        if self.solar:
            return OperatingMode.SOLAR
        return OperatingMode.SLEEP if eligible else OperatingMode.CONTINUOUS


@dataclass(frozen=True)
class TechnologyCatalog:
    """The candidate options and policy knobs of one optimization run.

    Attributes
    ----------
    technologies:
        Which technology families to include (subset of the
        :class:`Technology` values; the study layer encodes this as a
        comma-separated string).
    repeater_configs:
        Candidate ``(isd_m, n_repeaters)`` pairs for the repeater chain —
        defaults are registered paper maxima, so they pass the 29 dB
        criterion.
    conventional_isd_m:
        ISD of the conventional option (paper baseline 500 m).
    relay_isd_m:
        Trackside ISD of the mobile-relay option.  The onboard relay closes
        the link through the train body, so this sparse grid is exempt from
        the trackside min-SNR criterion.
    relay_fleet:
        Onboard relay energy model (650 W relays + cooling).
    include_solar:
        Also offer the off-grid SOLAR variant of each repeater config.
    min_sleep_headway_s:
        Demand-aware sleep rule: a segment may sleep iff its mean headway
        is at least this long.
    """

    technologies: tuple[str, ...] = ("conventional", "repeater",
                                     "mobile_relay")
    repeater_configs: tuple[tuple[float, int], ...] = (
        (1250.0, 1), (1800.0, 4), (2400.0, 8), (2650.0, 10))
    conventional_isd_m: float = constants.CONVENTIONAL_ISD_M
    relay_isd_m: float = 2650.0
    relay_fleet: OnboardRelayFleet = field(default_factory=OnboardRelayFleet)
    include_solar: bool = True
    min_sleep_headway_s: float = 300.0

    def __post_init__(self) -> None:
        known = {tech.value for tech in Technology}
        unknown = [name for name in self.technologies if name not in known]
        if unknown or not self.technologies:
            raise ConfigurationError(
                f"unknown technologies {unknown}; available: {sorted(known)}")
        if len(set(self.technologies)) != len(self.technologies):
            raise ConfigurationError(
                f"duplicate technologies: {self.technologies}")
        if not self.repeater_configs and "repeater" in self.technologies:
            raise ConfigurationError("repeater technology needs >= 1 config")
        if not (math.isfinite(self.min_sleep_headway_s)
                and self.min_sleep_headway_s >= 0):
            raise ConfigurationError(
                f"min sleep headway must be finite and >= 0, "
                f"got {self.min_sleep_headway_s}")

    @classmethod
    def from_names(cls, technologies: str, **kwargs) -> "TechnologyCatalog":
        """Build a catalog from a comma-separated technology list.

        Args:
            technologies: e.g. ``"conventional,repeater,mobile_relay"`` —
                the scalar encoding the study layer's ``technologies``
                parameter uses.
            **kwargs: Forwarded to the :class:`TechnologyCatalog`
                constructor.
        """
        names = tuple(name.strip() for name in technologies.split(",")
                      if name.strip())
        return cls(technologies=names, **kwargs)

    def options(self) -> tuple[TechnologyOption, ...]:
        """The realized option list, in deterministic catalog order."""
        out: list[TechnologyOption] = []
        if "conventional" in self.technologies:
            out.append(TechnologyOption(
                Technology.CONVENTIONAL,
                CorridorLayout.conventional(self.conventional_isd_m)))
        if "repeater" in self.technologies:
            for isd_m, n in self.repeater_configs:
                layout = CorridorLayout.with_uniform_repeaters(isd_m, n)
                out.append(TechnologyOption(Technology.REPEATER, layout))
                if self.include_solar:
                    out.append(TechnologyOption(Technology.REPEATER, layout,
                                                solar=True))
        if "mobile_relay" in self.technologies:
            out.append(TechnologyOption(
                Technology.MOBILE_RELAY,
                CorridorLayout.conventional(self.relay_isd_m)))
        return tuple(out)

    def sleep_eligible(self, demand: DemandProfile) -> bool:
        """The demand-aware sleep rule for one segment's demand."""
        return demand.headway_s >= self.min_sleep_headway_s


@dataclass(frozen=True)
class SegmentFrontiers:
    """The full ``[segment, option]`` frontier arrays of one graph.

    Attributes
    ----------
    graph / catalog:
        The inputs the arrays were computed from.
    options:
        Column order of the arrays (deterministic catalog order).
    energy_w:
        Average power per (segment, option) [W] — trackside mains plus,
        for the mobile relay, the onboard fleet share.
    cost_eur:
        Total cost per (segment, option) over ``horizon_years`` [EUR].
    feasible:
        Whether the option is available on the segment (radio criterion,
        schedulability of the demand, solar-needs-sleep).
    eligible:
        Per-segment sleep eligibility (option-independent demand rule).
    horizon_years / threshold_db:
        Cost horizon and the radio feasibility criterion used.
    """

    graph: NetworkGraph
    catalog: TechnologyCatalog
    options: tuple[TechnologyOption, ...]
    energy_w: np.ndarray
    cost_eur: np.ndarray
    feasible: np.ndarray
    eligible: np.ndarray
    horizon_years: float
    threshold_db: float

    @property
    def n_segments(self) -> int:
        """Row count (canonical graph segment order)."""
        return self.energy_w.shape[0]

    @property
    def scanned_options(self) -> int:
        """Total (segment, option) cells evaluated — the full-scan size."""
        return int(self.energy_w.size)

    def min_energy_w(self) -> float:
        """Lowest achievable network energy (min feasible option per row).

        Computed on first use and cached on the frontier object.
        """
        return self._min_energy_w

    @functools.cached_property
    def _min_energy_w(self) -> float:
        energy = np.where(self.feasible, self.energy_w, np.inf)
        return float(energy.min(axis=1).sum())

    @functools.cached_property
    def row_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Segments with identical frontier rows, as ``(first, inverse)``.

        ``first`` holds the lowest segment index of each distinct row of
        (``feasible``, ``energy_w``, ``cost_eur``) and ``inverse`` maps every
        segment to its group, so ``energy_w[first][inverse]`` reproduces
        ``energy_w``.  Infeasible cells are masked to NaN and feasible cells
        compared bit for bit, so grouped rows score identically in the
        optimizer.  A national graph's 10 000 segments share ~100 rows.
        Computed on first use and cached on the frontier object.
        """
        feasible = self.feasible
        keys = np.concatenate(
            [np.where(feasible, self.energy_w, np.nan).view(np.int64),
             np.where(feasible, self.cost_eur, np.nan).view(np.int64),
             feasible.astype(np.int64)], axis=1)
        # Stable sort, so each group's first sorted member is its lowest index.
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        return order[starts], inverse


def _segment_cost(length_km, n_seg, n_service, n_donor, energy_w,
                  relay_trains, relays_per_train: int,
                  option: TechnologyOption,
                  assumptions: CostAssumptions, horizon_years: float):
    """Elementwise cost formula (floats or arrays alike).

    ``relay_trains`` is the mean number of trains on the segment and
    ``relays_per_train`` the onboard relays each carries; only a mobile-relay
    option prices them.
    """
    capex = (n_seg * assumptions.hp_site_capex
             + n_service * assumptions.repeater_capex
             + n_donor * assumptions.donor_capex
             + length_km * assumptions.fiber_capex_per_km)
    if option.solar:
        capex = capex + (n_service + n_donor) * assumptions.pv_system_capex
    if option.technology is Technology.MOBILE_RELAY:
        capex = capex + (relay_trains * relays_per_train
                         * assumptions.onboard_relay_capex)
    energy_opex = (energy_w * _HOURS_PER_YEAR_OVER_KWH
                   * assumptions.energy_price_per_kwh * horizon_years)
    maintenance = (n_seg * assumptions.hp_maintenance_per_year
                   + (n_service + n_donor)
                   * assumptions.lp_maintenance_per_year) * horizon_years
    return capex + energy_opex + maintenance


@dataclass(frozen=True)
class _ProfileQuantities:
    """Per-(speed class, demand, option) scalars of one frontier cell."""

    w_per_km: float
    feasible: bool
    trains_per_day: float
    speed_ms: float
    train_length_m: float


def _profile_quantities(option: TechnologyOption, speed_class: str,
                        demand: DemandProfile, eligible: bool,
                        min_snr_db: float, threshold_db: float
                        ) -> _ProfileQuantities:
    """Evaluate one unique (option, speed class, demand) combination.

    :func:`segment_frontiers` calls this once per unique combination and
    broadcasts the result to the combination's segments.
    """
    speed_kmh = SPEED_CLASSES[speed_class].train_speed_kmh
    traffic = demand.traffic(speed_kmh)
    quantities = _ProfileQuantities(
        w_per_km=float("nan"), feasible=False,
        trains_per_day=traffic.trains_per_day,
        speed_ms=kmh_to_ms(speed_kmh), train_length_m=demand.train_length_m)
    if option.solar and not eligible:
        return quantities  # solar implies sleep; not available here
    if (option.technology is not Technology.MOBILE_RELAY
            and min_snr_db < threshold_db):
        return quantities  # trackside link budget does not close
    try:
        energy = segment_energy(option.layout, option.mode(eligible),
                                EnergyParams(traffic=traffic))
    except ConfigurationError:
        # Train passages would overlap inside the option's coverage section:
        # the demand cannot be scheduled on this sparse a grid.
        return quantities
    return _ProfileQuantities(
        w_per_km=energy.w_per_km, feasible=True,
        trains_per_day=quantities.trains_per_day,
        speed_ms=quantities.speed_ms,
        train_length_m=quantities.train_length_m)


def _min_snr_batched(options, link, resolution_m, cache, jobs) -> list[float]:
    """One batched Eq. (2) pass over the unique non-relay layouts."""
    from repro.radio.batch import evaluate_scenarios
    from repro.scenario.spec import Scenario

    unique: dict[tuple, int] = {}
    scenarios = []
    for option in options:
        if option.technology is Technology.MOBILE_RELAY:
            continue
        key = (option.layout.isd_m, option.layout.repeater_positions_m)
        if key not in unique:
            unique[key] = len(scenarios)
            scenarios.append(Scenario(layout=option.layout, link=link,
                                      resolution_m=resolution_m))
    profiles = evaluate_scenarios(scenarios, cache=cache, jobs=jobs)
    out = []
    for option in options:
        if option.technology is Technology.MOBILE_RELAY:
            out.append(float("inf"))
        else:
            key = (option.layout.isd_m, option.layout.repeater_positions_m)
            out.append(float(profiles[unique[key]].min_snr_db))
    return out


def segment_frontiers(graph: NetworkGraph,
                      catalog: TechnologyCatalog | None = None,
                      assumptions: CostAssumptions | None = None,
                      link: LinkParams | None = None,
                      resolution_m: float = 25.0,
                      horizon_years: float = 10.0,
                      threshold_db: float = constants.PEAK_SNR_CRITERION_DB,
                      cache=None,
                      jobs: int | None = None,
                      engine: str = "batched") -> SegmentFrontiers:
    """Compute the per-segment technology frontier of a whole graph.

    Args:
        graph: The network (canonical segment order = array row order).
        catalog: Candidate options and policy knobs (default catalog).
        assumptions: Unit costs (:class:`CostAssumptions` defaults).
        link: Radio link budget for the trackside feasibility criterion.
        resolution_m: Track grid of the Eq. (2) evaluation.
        horizon_years: Cost horizon [years].
        threshold_db: Min-SNR feasibility criterion [dB].
        cache: Optional :class:`repro.scenario.cache.ProfileCache`.
        jobs: Thread sharding of the batched Eq. (2) pass.
        engine: Must be ``"batched"``, the only engine; kept while
            callers still pass it.

    Returns:
        The :class:`SegmentFrontiers` arrays.

    Raises:
        ConfigurationError: For an engine other than ``"batched"``, or a
            horizon or threshold that is not finite (or a horizon <= 0).
    """
    if engine != "batched":
        raise ConfigurationError(
            f"unknown frontier engine {engine!r}; available: batched")
    if not (math.isfinite(horizon_years) and horizon_years > 0):
        raise ConfigurationError(
            f"horizon must be finite and positive, got {horizon_years}")
    if not math.isfinite(threshold_db):
        raise ConfigurationError(
            f"min-SNR threshold must be finite, got {threshold_db}")
    catalog = catalog or TechnologyCatalog()
    assumptions = assumptions or CostAssumptions()
    link = link or LinkParams()
    options = catalog.options()
    lengths = graph.segment_length_km
    n_seg = lengths.size
    n_opt = len(options)
    lengths_m = lengths * 1000.0

    # One batched Eq. (2) pass over the unique candidate layouts.
    min_snrs = _min_snr_batched(options, link, resolution_m, cache, jobs)

    # Distinct (speed class, demand) profiles and the row -> profile map,
    # straight from the graph's index columns.
    n_demands = len(graph.demands)
    keys, profile_of = np.unique(
        graph.speed_index * n_demands + graph.demand_index,
        return_inverse=True)
    profiles = [(graph.speed_classes[key // n_demands],
                 graph.demands[key % n_demands]) for key in keys.tolist()]

    eligible_p = np.array([catalog.sleep_eligible(d) for _, d in profiles],
                          dtype=bool)
    eligible = eligible_p[profile_of]

    energy_w = np.empty((n_seg, n_opt), dtype=np.float64)
    cost_eur = np.empty((n_seg, n_opt), dtype=np.float64)
    feasible = np.empty((n_seg, n_opt), dtype=bool)

    for k, option in enumerate(options):
        # One scalar evaluation per unique profile, broadcast by index.
        per_profile = [
            _profile_quantities(option, cls, demand, bool(eligible_p[p]),
                                min_snrs[k], threshold_db)
            for p, (cls, demand) in enumerate(profiles)]
        wpkm = np.array([q.w_per_km for q in per_profile])[profile_of]
        ok = np.array([q.feasible for q in per_profile])[profile_of]
        tpd = np.array([q.trains_per_day for q in per_profile])[profile_of]
        speed = np.array([q.speed_ms for q in per_profile])[profile_of]
        train_m = np.array([q.train_length_m
                            for q in per_profile])[profile_of]

        energy = wpkm * lengths
        relay_trains = np.zeros(n_seg, dtype=np.float64)
        if option.technology is Technology.MOBILE_RELAY:
            occupancy_s = (lengths_m + train_m) / speed
            relay_trains = tpd * occupancy_s / _DAY_S
            energy = energy + (relay_trains
                               * catalog.relay_fleet.active_power_per_train_w)

        segs_per_row = np.ceil(lengths_m / option.layout.isd_m)
        n_service = segs_per_row * option.layout.n_repeaters
        n_donor = segs_per_row * option.layout.n_donor_nodes
        cost = _segment_cost(lengths, segs_per_row, n_service, n_donor,
                             energy, relay_trains,
                             catalog.relay_fleet.relays_per_train, option,
                             assumptions, horizon_years)
        energy_w[:, k] = np.where(ok, energy, np.nan)
        cost_eur[:, k] = np.where(ok, cost, np.nan)
        feasible[:, k] = ok

    return SegmentFrontiers(graph=graph, catalog=catalog, options=options,
                            energy_w=energy_w, cost_eur=cost_eur,
                            feasible=feasible, eligible=eligible,
                            horizon_years=horizon_years,
                            threshold_db=threshold_db)
