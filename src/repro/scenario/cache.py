"""Memoized evaluation results keyed by content hash.

Two layers, shared by every cache in the repository:

* an in-memory LRU (``maxsize`` entries) for hot loops such as the placement
  optimizer, which revisits the same layouts across coordinate-descent rounds;
* an optional on-disk layer (``cache_dir``) that persists values as
  ``<key>.bundle`` files named by hash, so repeated experiment runs
  (``repro maxisd --cache-dir ...``) skip the evaluation entirely.

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

A bundle file is one raw blob, written with one ``write``:

* a magic line (``repro-bundle 1``) and an 8-byte little-endian header
  length;
* a JSON header: ``{"arrays": [[name, dtype.str, shape, nbytes], ...],
  "checksum": ...}``;
* the arrays' C-order bytes, concatenated in header order.

Only plain dtypes (kinds ``b i u f U S``) are stored, so a bundle never holds
pickled objects.  Files of any other layout, including the ``.npz`` zips of
older releases, are not read: an old store recomputes.

The disk layer is hardened against the failure modes of killed and
misbehaving runs:

* writes are **atomic** (temp file + ``os.replace``), so a killed writer
  never leaves a torn bundle under the final name; the temp name carries
  the pid and the thread id, so concurrent writers never share one;
* every bundle carries a **content checksum** (SHA-256 over the packed
  arrays) in its header; a mismatch on load — bit rot, tampering,
  deliberate fault injection — is treated as a miss, not a crash;
* every header entry is validated against the file (magic, header length,
  dtype kind, ``nbytes == prod(shape) * itemsize``, exact body coverage);
* corrupt, truncated or checksum-failing files are **quarantined** into a
  ``quarantine/`` sidecar directory (and recomputed), preserving the
  evidence instead of silently overwriting it;
* an unwritable ``cache_dir`` mid-run (disk full, permissions yanked)
  degrades the cache to memory-only for that write instead of raising
  through the engine (counted in :attr:`ArrayCache.disk_errors`).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.radio.link import SnrProfile
    from repro.scenario.spec import Scenario

__all__ = ["content_token", "ArrayCache", "ProfileCache", "QUARANTINE_DIR"]

_PROFILE_FIELDS = ("positions_m", "source_rsrp_dbm", "total_signal_dbm",
                   "total_noise_dbm", "snr_db")

#: First line of every bundle file.
_MAGIC = b"repro-bundle 1\n"
#: Byte length of the JSON header, right after the magic line.
_HEADER_LEN = struct.Struct("<Q")
#: dtype kinds a bundle may hold: no objects, no void or structured arrays.
_KINDS = "biufUS"

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
    return _renderer(type(obj))(obj)


@functools.cache
def _renderer(cls) -> Callable[[object], str]:
    """How :func:`content_token` renders instances of ``cls``, decided once
    per type (a dataclass's field names included)."""
    if is_dataclass(cls):
        head = f"{cls.__name__}("
        names = [(name, f"{name}=") for name in (f.name for f in fields(cls))]
        return lambda obj: head + ",".join(
            [label + content_token(getattr(obj, name))
             for name, label in names]) + ")"
    if issubclass(cls, enum.Enum):
        return lambda obj: f"{cls.__name__}.{obj.name}"
    if issubclass(cls, (bool, int, str, type(None))):
        return repr
    if issubclass(cls, float):
        return float.hex
    if issubclass(cls, np.floating):
        return lambda obj: float(obj).hex()
    if issubclass(cls, (tuple, list)):
        return _sequence_token
    if issubclass(cls, np.ndarray):
        return lambda obj: _sequence_token(obj.tolist())
    raise ConfigurationError(
        f"cannot build a content token for {cls.__name__!r}")


def _sequence_token(values) -> str:
    return "(" + ",".join([content_token(v) for v in values]) + ")"


def _bundle_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the packed arrays (names, dtypes, shapes, raw bytes)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _encode_bundle(arrays: dict[str, np.ndarray]) -> tuple[bytes, str]:
    """The bundle file holding ``arrays``, and their checksum."""
    entries, chunks = [], []
    for name, value in arrays.items():
        arr = np.asarray(value)
        if arr.dtype.kind not in _KINDS:
            raise ValueError(f"array {name!r}: dtype {arr.dtype} cannot be "
                             "stored in a bundle")
        raw = arr.tobytes()
        entries.append([name, arr.dtype.str, list(arr.shape), len(raw)])
        chunks.append(raw)
    checksum = _bundle_checksum(arrays)
    header = json.dumps({"arrays": entries, "checksum": checksum}).encode()
    # Space-pad the header so the body starts 8-byte aligned: a bundle of
    # float arrays reads back as aligned arrays.
    header += b" " * (-(len(_MAGIC) + _HEADER_LEN.size + len(header)) % 8)
    return (b"".join([_MAGIC, _HEADER_LEN.pack(len(header)), header, *chunks]),
            checksum)


def _decode_bundle(buf: bytearray) -> tuple[dict[str, np.ndarray], str]:
    """``(arrays, recorded checksum)`` of a bundle file's bytes.

    The arrays are writeable views into ``buf``.  The checksum is returned
    as recorded, not verified.

    Raises:
        ValueError: For anything but a well-formed bundle: bad magic, a
            header length past the end of the file, a malformed header, a
            dtype outside :data:`_KINDS`, an entry whose ``nbytes`` is not
            ``prod(shape) * itemsize``, or a body the entries do not cover
            exactly.
    """
    start = len(_MAGIC) + _HEADER_LEN.size
    if not buf.startswith(_MAGIC) or len(buf) < start:
        raise ValueError("not a bundle file")
    (header_len,) = _HEADER_LEN.unpack_from(buf, len(_MAGIC))
    offset = start + header_len
    if offset > len(buf):
        raise ValueError("bundle header runs past the end of the file")
    try:
        header = json.loads(buf[start:offset])
        checksum = header["checksum"]
        entries = [(name, np.dtype(dtype), tuple(shape), nbytes)
                   for name, dtype, shape, nbytes in header["arrays"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bundle header: {exc}") from exc
    arrays = {}
    for name, dtype, shape, nbytes in entries:
        if (not isinstance(name, str) or dtype.kind not in _KINDS
                or not all(type(n) is int and n >= 0 for n in shape)
                or type(nbytes) is not int
                or nbytes != math.prod(shape) * dtype.itemsize
                or offset + nbytes > len(buf)):
            raise ValueError(f"bad bundle entry {name!r}")
        arrays[name] = np.frombuffer(buf, dtype, math.prod(shape),
                                     offset).reshape(shape)
        offset += nbytes
    if offset != len(buf) or not isinstance(checksum, str):
        raise ValueError("bundle body does not match its header")
    return arrays, checksum


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
            self._write_bundle(key, self.encode(value)[0])

    def encode(self, value) -> tuple[bytes, str]:
        """The bundle file bytes of ``value`` and their content checksum."""
        return _encode_bundle(self._pack(value))

    def _write_bundle(self, key: str, data: bytes) -> bool:
        """Write bundle bytes under ``key``; False when the disk refused.

        Write-then-rename, so an interrupted run never leaves a torn bundle
        behind.  Threads of one process share the pid, so the temp name
        carries the thread id too.
        """
        path = self.bundle_path(key)
        tmp_path = path.with_name(
            f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
            return True
        except OSError:
            self.disk_errors += 1
            try:
                tmp_path.unlink(missing_ok=True)
            except OSError:
                pass
            return False

    def bundle_path(self, key: str) -> Path:
        """Path of the on-disk bundle for ``key`` (the store must have a
        ``cache_dir``)."""
        return self.cache_dir / f"{key}.bundle"

    # -- internals ----------------------------------------------------------

    def _remember(self, key: str, value) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    def _load_disk(self, key: str):
        if self.cache_dir is None:
            return None
        try:
            verified = self._read_bundle(key)
            return None if verified is None else self._unpack(verified[0])
        except (OSError, ValueError, KeyError, TypeError):
            # A corrupt, truncated or checksum-failing file is a miss, not a
            # crash: quarantine the evidence and recompute (the fresh put()
            # rewrites the final name atomically).
            self._quarantine(self.bundle_path(key))
            return None

    def load_verified(self, key: str) -> tuple[object, str] | None:
        """The on-disk value for ``key`` with its verified checksum.

        Reads the bundle, recomputes the SHA-256 over its arrays and
        compares it with the checksum in its header — the same digest
        :meth:`put_by_hash` stamped at write time, which shard manifests
        (:mod:`repro.study.manifest`) attest per bundle.  One read serves
        both the comparison and the value.  Unlike :meth:`get_by_hash`, a
        damaged file is *not* quarantined — the caller (a merge validator)
        owns the evidence — and the in-memory layer is neither read nor
        filled.

        Args:
            key: Content-hash key of the bundle.

        Returns:
            ``(value, checksum)``, or ``None`` when the store has no disk
            layer, the file is absent, unreadable, malformed, its content
            no longer matches the recorded checksum (tampering, bit rot, a
            torn write) or its arrays do not unpack.
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
        try:
            return self._read_bundle(key)
        except (OSError, ValueError):
            return None

    def _read_bundle(self, key: str) -> tuple[dict, str] | None:
        """``(arrays, checksum)`` of the bundle for ``key``; ``None`` when
        there is no such file.

        Raises:
            OSError: The file exists but cannot be read.
            ValueError: The file is not a well-formed bundle, or its arrays
                do not match the checksum in its header.
        """
        path = self.bundle_path(key)
        try:
            with open(path, "rb") as handle:
                buf = bytearray(handle.read())
        except FileNotFoundError:
            return None
        arrays, stored = _decode_bundle(buf)
        computed = _bundle_checksum(arrays)
        if stored != computed:
            raise ValueError(f"checksum mismatch in {path.name}")
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
