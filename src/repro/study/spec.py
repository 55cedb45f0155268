"""Declarative study specifications: sweeps as data, not code.

A :class:`StudySpec` captures everything a multi-engine sweep needs — the
engine to drive, the sweep axes, the fixed parameters, the seeding policy and
any derived-metric formulas — as one plain-data document, loadable from YAML
or TOML (``studies/*.yaml`` ships worked examples; the schema is documented
in ``docs/studies.md``).

The spec *compiles* to the existing batch engines: each point of the
cartesian axis product becomes one **case**, a plain parameter dict the
engine adapter (:mod:`repro.study.engines`) evaluates through
:func:`repro.radio.batch.evaluate_scenarios`,
:func:`repro.solar.batch.simulate_systems`,
:func:`repro.optimize.mc.outage_matrix` or
:func:`repro.simulation.batch.simulate_days`.  The sharded runner
(:mod:`repro.study.runner`) executes cases in chunks; the results store
(:mod:`repro.study.results`) merges them into one tidy table.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.scenario.spec import content_token
from repro.study.expressions import compile_expression, expression_names

__all__ = ["StudySpec", "load_study", "parse_study", "study_from_mapping"]

#: Seeding policies.  ``shared`` passes the study seed to every case — the
#: common-random-number convention of the grid experiments (every cell sees
#: identical stochastic streams, so cross-cell comparisons carry no sampling
#: noise).  ``per-case`` derives an independent seed per case index.
SEED_MODES = ("shared", "per-case")

_SCALAR_TYPES = (bool, int, float, str)


def _check_scalar(value, where: str):
    if isinstance(value, _SCALAR_TYPES) or value is None:
        return value
    raise ConfigurationError(
        f"{where}: values must be scalars (bool/int/float/str), "
        f"got {type(value).__name__}")


@dataclass(frozen=True)
class StudySpec:
    """One declarative sweep over a batch engine.

    Attributes
    ----------
    name:
        Identifier of the study (used in filenames and provenance records).
    engine:
        Engine adapter id — one of :data:`repro.study.engines.STUDY_ENGINES`
        (``radio``, ``solar``, ``mc``, ``sim``).
    axes:
        Ordered ``(parameter, values)`` sweep axes.  Cases are the cartesian
        product in declaration order, last axis fastest (the
        :func:`itertools.product` convention).
    fixed:
        Ordered ``(parameter, value)`` overrides applied to every case.
    seed:
        Root seed of the study (propagated to stochastic engines).
    seed_mode:
        ``"shared"`` (default, common random numbers across cases) or
        ``"per-case"`` (independent streams per case index); both are
        invariant to the shard layout.
    derived:
        Ordered ``(metric, expression)`` formulas evaluated per case over the
        engine metrics (see :mod:`repro.study.expressions`).
    metrics:
        Optional subset of engine metric names to keep in the results table
        (derived metrics are always kept); ``()`` keeps everything.
    description:
        Free-form one-liner for ``repro study list`` and the docs.
    """

    name: str
    engine: str
    axes: tuple[tuple[str, tuple], ...]
    fixed: tuple[tuple[str, object], ...] = ()
    seed: int = 0
    seed_mode: str = "shared"
    derived: tuple[tuple[str, str], ...] = ()
    metrics: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ConfigurationError("study name must be a non-empty string")
        if self.seed_mode not in SEED_MODES:
            raise ConfigurationError(
                f"seed_mode must be one of {SEED_MODES}, got {self.seed_mode!r}")
        if not self.axes:
            raise ConfigurationError(
                f"study {self.name!r} declares no sweep axes")
        object.__setattr__(self, "axes", tuple(
            (str(name), tuple(_check_scalar(v, f"axis {name!r}") for v in values))
            for name, values in self.axes))
        object.__setattr__(self, "fixed", tuple(
            (str(name), _check_scalar(value, f"fixed parameter {name!r}"))
            for name, value in self.fixed))
        for name, values in self.axes:
            if not values:
                raise ConfigurationError(
                    f"axis {name!r} of study {self.name!r} is empty")
        axis_names = [name for name, _ in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ConfigurationError(
                f"study {self.name!r} repeats an axis name: {axis_names}")
        overlap = set(axis_names) & {name for name, _ in self.fixed}
        if overlap:
            raise ConfigurationError(
                f"study {self.name!r} declares {sorted(overlap)} both as an "
                f"axis and as a fixed parameter")
        derived_names = [name for name, _ in self.derived]
        if len(set(derived_names)) != len(derived_names):
            raise ConfigurationError(
                f"study {self.name!r} repeats a derived metric: {derived_names}")
        for name, expression in self.derived:
            compile_expression(expression)  # syntax check at load time
        self._validate_against_engine()

    # -- engine contract -----------------------------------------------------

    def _validate_against_engine(self) -> None:
        from repro.study.engines import STUDY_ENGINES

        adapter = STUDY_ENGINES.get(self.engine)
        if adapter is None:
            raise ConfigurationError(
                f"study {self.name!r}: unknown engine {self.engine!r}; "
                f"available: {sorted(STUDY_ENGINES)}")
        declared = {name for name, _ in self.axes} | {name for name, _ in self.fixed}
        unknown = declared - set(adapter.params)
        if unknown:
            raise ConfigurationError(
                f"study {self.name!r}: engine {self.engine!r} does not accept "
                f"{sorted(unknown)}; accepted: {sorted(adapter.params)}")
        missing = adapter.required - declared
        if missing:
            raise ConfigurationError(
                f"study {self.name!r}: engine {self.engine!r} requires "
                f"{sorted(missing)} (as an axis or a fixed parameter)")
        engine_metrics = set(adapter.metrics)
        bad_subset = set(self.metrics) - engine_metrics
        if bad_subset:
            raise ConfigurationError(
                f"study {self.name!r}: unknown metrics {sorted(bad_subset)}; "
                f"engine {self.engine!r} produces {sorted(engine_metrics)}")
        reserved = engine_metrics | declared | {"case"}
        for name, expression in self.derived:
            if name in reserved:
                raise ConfigurationError(
                    f"study {self.name!r}: derived metric {name!r} collides "
                    f"with an engine metric, axis or reserved column")
            unknown_refs = expression_names(expression) - engine_metrics
            if unknown_refs:
                raise ConfigurationError(
                    f"study {self.name!r}: derived metric {name!r} references "
                    f"{sorted(unknown_refs)}, not produced by engine "
                    f"{self.engine!r} (available: {sorted(engine_metrics)})")

    # -- case expansion ------------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        """Sweep axis names in declaration order."""
        return tuple(name for name, _ in self.axes)

    @property
    def case_count(self) -> int:
        """Number of cases (the cartesian product of axis lengths)."""
        return math.prod(len(values) for _, values in self.axes)

    def cases(self, start: int | None = None,
              stop: int | None = None) -> list[dict]:
        """Expand the axes into the flat, ordered case-parameter list.

        Each case is ``dict(fixed) | {axis: value, ...}``; order is the
        cartesian product of the axes in declaration order (last axis
        fastest), so case index ``i`` is stable across runs, shard layouts
        and processes — the property the seeding and the results store key on.

        Args:
            start / stop: Optional case range, with the meaning of the slice
                ``cases()[start:stop]``.  A range decodes only its own cases
                (:meth:`axis_columns`), so a shard never expands the grid.

        Returns:
            The case parameter dicts, in case order.
        """
        if start is None and stop is None:
            points = product(*(values for _, values in self.axes))
        else:
            indices = range(*slice(start, stop).indices(self.case_count))
            points = zip(*self.axis_columns(indices).values())
        base = dict(self.fixed)
        names = self.axis_names
        return [base | dict(zip(names, point)) for point in points]

    def case(self, index: int) -> dict:
        """Parameters of case ``index`` (``cases()[index]``, without the grid).

        Raises:
            IndexError: When ``index`` is outside ``[-case_count, case_count)``.
        """
        count = self.case_count
        if not -count <= index < count:
            raise IndexError(
                f"case index {index} outside the {count}-case study "
                f"{self.name!r}")
        index %= count
        return self.cases(index, index + 1)[0]

    def axis_columns(self, indices) -> dict[str, list]:
        """Axis values of the given case indices, one column per axis.

        The mixed-radix decoder behind :meth:`case` and ranged
        :meth:`cases`: digit ``k`` of case ``i`` is
        ``(i // stride_k) % len(axis_k)``, where ``stride_k`` is the product
        of the later axes' lengths (last axis fastest).  No case dicts are
        built, so decoding ``n`` indices costs O(n x axes).

        Args:
            indices: Case indices, each in ``[0, case_count)``.

        Returns:
            One list of values per axis (aligned with ``indices``), keyed by
            axis name in declaration order.

        Raises:
            IndexError: When an index is outside ``[0, case_count)``.
        """
        if len(indices) and not (0 <= min(indices)
                                 and max(indices) < self.case_count):
            raise IndexError(
                f"case indices must lie in [0, {self.case_count}) for study "
                f"{self.name!r}")
        columns = {}
        stride = 1
        for name, values in reversed(self.axes):
            size = len(values)
            columns[name] = [values[(i // stride) % size] for i in indices]
            stride *= size
        return {name: columns[name] for name in self.axis_names}

    def case_seed(self, index: int) -> int:
        """Engine seed of case ``index`` under the study's seeding policy.

        ``shared`` mode returns the study seed itself: every case's engine
        then draws the same per-trial streams (``default_rng([seed, t])``
        inside the MC/sim engines) — common random numbers across the whole
        grid.  ``per-case`` mode derives an independent stream from
        ``SeedSequence([seed, index])``.  Both depend only on the case index,
        never on the shard layout, which is what keeps results bit-identical
        across shard counts.
        """
        if self.seed_mode == "shared":
            return int(self.seed)
        state = np.random.SeedSequence([int(self.seed), int(index)])
        return int(state.generate_state(1, dtype=np.uint64)[0])

    # -- identity ------------------------------------------------------------

    @property
    def compute_hash(self) -> str:
        """SHA-256 over the fields that determine engine outputs.

        Derived metrics, the metric subset and the description are *excluded*:
        the results store keys shards by this hash, so editing a formula or a
        label never invalidates cached engine results — only changes to the
        engine, axes, fixed parameters or seeding do.

        Computed once per instance (the spec is frozen); the memo travels
        with the spec when it is pickled into pool workers.
        """
        digest = self.__dict__.get("_compute_hash")
        if digest is None:
            core = replace(self, derived=(), metrics=(), description="")
            digest = hashlib.sha256(content_token(core).encode()).hexdigest()
            object.__setattr__(self, "_compute_hash", digest)
        return digest

    def with_overrides(self, **fixed) -> "StudySpec":
        """Copy of the spec with ``fixed`` entries added/replaced.

        Axis parameters cannot be overridden this way (that would silently
        drop a sweep dimension); pass a new ``axes`` via
        :func:`dataclasses.replace` instead.
        """
        for name in fixed:
            _check_scalar(fixed[name], f"override {name!r}")
        merged = dict(self.fixed)
        merged.update(fixed)
        return replace(self, fixed=tuple(merged.items()))


# -- document loading --------------------------------------------------------

_TOP_LEVEL_KEYS = {"name", "engine", "axes", "fixed", "seed", "seed_mode",
                   "derived", "metrics", "description"}


def study_from_mapping(document: dict, source: str = "<mapping>") -> StudySpec:
    """Build a :class:`StudySpec` from a parsed YAML/TOML mapping.

    Args:
        document: The parsed top-level mapping (see ``docs/studies.md`` for
            the schema).
        source: Label used in error messages (file path or ``<text>``).

    Returns:
        The validated spec.

    Raises:
        ConfigurationError: On unknown keys, missing ``name``/``engine``/
            ``axes``, malformed axis values, or any engine-contract violation.
    """
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"{source}: study document must be a mapping, "
            f"got {type(document).__name__}")
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown study keys {sorted(unknown)}; "
            f"accepted: {sorted(_TOP_LEVEL_KEYS)}")
    for required in ("name", "engine", "axes"):
        if required not in document:
            raise ConfigurationError(f"{source}: study needs a {required!r} key")
    axes = document["axes"]
    if not isinstance(axes, dict):
        raise ConfigurationError(
            f"{source}: 'axes' must be a mapping of parameter -> value list")
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)):
            raise ConfigurationError(
                f"{source}: axis {name!r} must be a list of values, "
                f"got {type(values).__name__}")
    fixed = document.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigurationError(
            f"{source}: 'fixed' must be a mapping of parameter -> value")
    derived = document.get("derived", {})
    if not isinstance(derived, dict):
        raise ConfigurationError(
            f"{source}: 'derived' must be a mapping of metric -> expression")
    for name, expression in derived.items():
        if not isinstance(expression, str):
            raise ConfigurationError(
                f"{source}: derived metric {name!r} must map to an expression "
                f"string, got {type(expression).__name__}")
    metrics = document.get("metrics", [])
    if not isinstance(metrics, (list, tuple)):
        raise ConfigurationError(
            f"{source}: 'metrics' must be a list of metric names")
    seed = document.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(
            f"{source}: 'seed' must be an integer, got {seed!r}")
    return StudySpec(
        name=str(document["name"]),
        engine=str(document["engine"]),
        axes=tuple((name, tuple(values)) for name, values in axes.items()),
        fixed=tuple(fixed.items()),
        seed=seed,
        seed_mode=str(document.get("seed_mode", "shared")),
        derived=tuple(derived.items()),
        metrics=tuple(str(m) for m in metrics),
        description=str(document.get("description", "")),
    )


def parse_study(text: str, format: str = "yaml",
                source: str = "<text>") -> StudySpec:
    """Parse a study document from YAML or TOML text.

    Args:
        text: The document body.
        format: ``"yaml"`` or ``"toml"``.
        source: Label used in error messages.

    Returns:
        The validated :class:`StudySpec`.
    """
    if format == "yaml":
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML ships with the env
            raise ConfigurationError(
                "YAML study files need the PyYAML package; install it or "
                "use the TOML format") from None
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{source}: invalid YAML: {exc}") from None
    elif format == "toml":
        import tomllib
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"{source}: invalid TOML: {exc}") from None
    else:
        raise ConfigurationError(
            f"unknown study format {format!r}; expected 'yaml' or 'toml'")
    return study_from_mapping(document, source=source)


def load_study(path: str | Path) -> StudySpec:
    """Load and validate a study file (``.yaml``/``.yml`` or ``.toml``).

    Args:
        path: Path to the study document.

    Returns:
        The validated :class:`StudySpec`.

    Raises:
        ConfigurationError: If the suffix is not a supported format or the
            document fails validation (see :func:`study_from_mapping`).
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        format = "yaml"
    elif suffix == ".toml":
        format = "toml"
    else:
        raise ConfigurationError(
            f"study file {str(path)!r} must end in .yaml/.yml/.toml")
    return parse_study(path.read_text(), format=format, source=str(path))
