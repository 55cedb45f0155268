"""Memoized evaluation results keyed by content hash.

Two layers, shared by every cache in the repository:

* an in-memory LRU (``maxsize`` entries) for hot loops such as the placement
  optimizer, which revisits the same layouts across coordinate-descent rounds;
* an optional on-disk layer (``cache_dir``) that persists values as ``.npz``
  files named by hash, so repeated experiment runs (``repro maxisd
  --cache-dir ...``) skip the evaluation entirely.

:func:`content_token` renders a parameter object as the canonical string
every cache key is hashed from (scenario hashes, weather keys, study
hashes).  It depends on nothing but numpy, so the study and solar layers
key their stores without importing the radio engine.

:class:`ArrayCache` is the generic machinery: it stores any value that can be
packed into a named bundle of numpy arrays.  :class:`ProfileCache`
specializes it for Eq. (2) :class:`~repro.radio.link.SnrProfile` objects; the
off-grid weather memo (:class:`repro.solar.batch.WeatherCache`) builds on the
same base for ``(days, 24)`` weather-year tensors.

Cached values are bit-identical to fresh ones: the arrays are stored as-is
without any rounding, and the in-memory layer returns the very same object.

The disk layer is hardened against the failure modes of killed and
misbehaving runs:

* writes are **atomic** (temp file + ``os.replace``), so a killed writer
  never leaves a torn ``.npz`` under the final name;
* every bundle carries a **content checksum** (SHA-256 over the packed
  arrays); a mismatch on load — bit rot, a torn write from a pre-hardening
  run, deliberate fault injection — is treated as a miss, not a crash;
* corrupt, truncated or checksum-failing files are **quarantined** into a
  ``quarantine/`` sidecar directory (and recomputed), preserving the
  evidence instead of silently overwriting it;
* an unwritable ``cache_dir`` mid-run (disk full, permissions yanked)
  degrades the cache to memory-only for that write instead of raising
  through the engine (counted in :attr:`ArrayCache.disk_errors`).
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
import zipfile
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.radio.link import SnrProfile
    from repro.scenario.spec import Scenario

__all__ = ["content_token", "ArrayCache", "ProfileCache", "QUARANTINE_DIR"]

_PROFILE_FIELDS = ("positions_m", "source_rsrp_dbm", "total_signal_dbm",
                   "total_noise_dbm", "snr_db")

#: Reserved bundle entry carrying the content checksum of the other arrays.
_CHECKSUM_KEY = "__checksum__"

#: Sidecar directory (under ``cache_dir``) damaged files are moved into.
QUARANTINE_DIR = "quarantine"


def content_token(obj) -> str:
    """Canonical, repr-stable token of a parameter object.

    Recurses through dataclasses, enums, tuples/lists and numpy scalars;
    floats are rendered with ``float.hex`` so the token is exact (no rounding
    ambiguity between values that print alike).

    Args:
        obj: A dataclass instance, enum member, ``None``, bool/int/str,
            float (or numpy floating), sequence of the above, or a numpy
            array.

    Returns:
        A deterministic string — equal tokens imply equal parameter content
        across processes and sessions (the hashing contract every cache in
        the repository keys on).

    Raises:
        ConfigurationError: For types without a canonical rendering.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={content_token(getattr(obj, f.name))}" for f in fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return repr(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(content_token(v) for v in obj) + ")"
    if isinstance(obj, np.ndarray):
        return "(" + ",".join(content_token(v) for v in obj.tolist()) + ")"
    raise ConfigurationError(
        f"cannot build a content token for {type(obj).__name__!r}")


def _bundle_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the packed arrays (names, dtypes, shapes, raw bytes)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if name == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class ArrayCache:
    """LRU + optional disk memo of values packable as named array bundles.

    Subclasses define the value type via :meth:`_pack` (value → dict of
    arrays, used by the disk layer) and :meth:`_unpack` (dict → value).  Keys
    are content-hash strings; the in-memory layer keeps the original objects,
    so repeated hits return identical instances.
    """

    def __init__(self, maxsize: int = 128,
                 cache_dir: str | Path | None = None) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            if self.cache_dir.exists() and not self.cache_dir.is_dir():
                raise ConfigurationError(
                    f"cache dir {str(self.cache_dir)!r} exists and is not a directory")
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Disk writes that failed (cache degraded to memory-only for them).
        self.disk_errors = 0
        #: Damaged files detected on load and moved to the sidecar directory.
        self.quarantined = 0

    def __len__(self) -> int:
        return len(self._memory)

    # -- value packing (subclass contract) -----------------------------------

    def _pack(self, value) -> dict[str, np.ndarray]:
        """Named arrays to persist for ``value`` (disk layer)."""
        raise NotImplementedError

    def _unpack(self, arrays: dict[str, np.ndarray]):
        """Rebuild a value from its persisted arrays (disk layer)."""
        raise NotImplementedError

    # -- lookup -------------------------------------------------------------

    def get_by_hash(self, key: str):
        """Return the cached value for ``key`` or ``None`` on a miss."""
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return value
        value = self._load_disk(key)
        with self._lock:
            if value is not None:
                self._remember(key, value)
                self.hits += 1
                return value
            self.misses += 1
            return None

    def put_by_hash(self, key: str, value) -> None:
        """Store a computed value under its content hash.

        The disk write is atomic (temp file + ``os.replace``) and the bundle
        is stamped with a content checksum; a failing write (unwritable
        directory, disk full) degrades to memory-only instead of raising.
        """
        with self._lock:
            self._remember(key, value)
        if self.cache_dir is not None:
            arrays = dict(self._pack(value))
            arrays[_CHECKSUM_KEY] = np.array(_bundle_checksum(arrays),
                                             dtype=np.str_)
            # Write-then-rename so an interrupted run never leaves a torn
            # .npz behind for later runs to choke on.
            tmp_path = self.cache_dir / f".{key}.{os.getpid()}.tmp.npz"
            try:
                np.savez(tmp_path, **arrays)
                os.replace(tmp_path, self.cache_dir / f"{key}.npz")
            except OSError:
                self.disk_errors += 1
            finally:
                try:
                    tmp_path.unlink(missing_ok=True)
                except OSError:
                    pass

    # -- internals ----------------------------------------------------------

    def _remember(self, key: str, value) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    def _load_disk(self, key: str):
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.npz"
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
            stored = arrays.pop(_CHECKSUM_KEY, None)
            if stored is not None and str(stored) != _bundle_checksum(arrays):
                raise ValueError(f"checksum mismatch in {path.name}")
            return self._unpack(arrays)
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                zipfile.BadZipFile):
            # A corrupt, truncated or checksum-failing file is a miss, not a
            # crash: quarantine the evidence and recompute (the fresh put()
            # rewrites the final name atomically).
            self._quarantine(path)
            return None

    def stored_checksum(self, key: str) -> str | None:
        """Verified content checksum of the on-disk bundle for ``key``.

        Loads the ``.npz`` bundle, recomputes the SHA-256 over its packed
        arrays and compares it with the embedded ``__checksum__`` entry —
        the same digest :meth:`put_by_hash` stamped at write time, which is
        what shard manifests (:mod:`repro.study.manifest`) record per array
        bundle.

        Args:
            key: Content-hash key of the bundle.

        Returns:
            The hex digest when the file exists and its checksum verifies;
            ``None`` when the store has no disk layer, the file is absent,
            unreadable, or its content no longer matches the embedded
            checksum (tampering, bit rot, a torn pre-hardening write).
            Unlike :meth:`get_by_hash`, a damaged file is *not* quarantined
            — the caller (a merge validator) owns the evidence.
        """
        verified = self._read_verified(key)
        return None if verified is None else verified[1]

    def load_verified(self, key: str) -> tuple[object, str] | None:
        """The on-disk value for ``key`` with its verified checksum.

        One read serves both a checksum comparison and the value (what
        :meth:`stored_checksum` followed by :meth:`get_by_hash` would read
        twice).  Like :meth:`stored_checksum`, a damaged file is *not*
        quarantined, and the in-memory layer is neither read nor filled.

        Args:
            key: Content-hash key of the bundle.

        Returns:
            ``(value, checksum)``, or ``None`` whenever
            :meth:`stored_checksum` would return ``None`` or the verified
            arrays do not unpack.
        """
        verified = self._read_verified(key)
        if verified is None:
            return None
        arrays, checksum = verified
        try:
            return self._unpack(arrays), checksum
        except (ValueError, KeyError, TypeError):
            return None

    def _read_verified(self, key: str) -> tuple[dict, str] | None:
        """``(arrays, checksum)`` of the bundle for ``key`` if it verifies."""
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.npz"
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                zipfile.BadZipFile):
            return None
        stored = arrays.pop(_CHECKSUM_KEY, None)
        computed = _bundle_checksum(arrays)
        if stored is not None and str(stored) != computed:
            return None
        return arrays, computed

    def _quarantine(self, path: Path) -> None:
        """Move a damaged file into the sidecar directory (best effort)."""
        try:
            if not path.exists():
                return
            sidecar = self.cache_dir / QUARANTINE_DIR
            sidecar.mkdir(parents=True, exist_ok=True)
            os.replace(path, sidecar / path.name)
            self.quarantined += 1
        except OSError:
            # Even unlink may fail on a read-only mount; never raise.
            try:
                path.unlink(missing_ok=True)
                self.quarantined += 1
            except OSError:
                pass


class ProfileCache(ArrayCache):
    """LRU + optional disk memo for :class:`repro.radio.link.SnrProfile`,
    keyed by :class:`~repro.scenario.spec.Scenario` content hash."""

    def _pack(self, value: SnrProfile) -> dict[str, np.ndarray]:
        return {name: getattr(value, name) for name in _PROFILE_FIELDS}

    def _unpack(self, arrays: dict[str, np.ndarray]) -> SnrProfile:
        from repro.radio.link import SnrProfile

        return SnrProfile(**{name: arrays[name] for name in _PROFILE_FIELDS})

    def get(self, scenario: Scenario) -> SnrProfile | None:
        """Return the cached profile for ``scenario`` or ``None`` on a miss."""
        return self.get_by_hash(scenario.content_hash)

    def put(self, scenario: Scenario, profile: SnrProfile) -> None:
        """Store a computed profile under the scenario's hash."""
        self.put_by_hash(scenario.content_hash, profile)

    def get_or_compute(self, scenario: Scenario) -> SnrProfile:
        """Cached profile, evaluating (and storing) on a miss; the scenario
        is hashed once either way."""
        key = scenario.content_hash
        profile = self.get_by_hash(key)
        if profile is None:
            profile = scenario.evaluate()
            self.put_by_hash(key, profile)
        return profile
