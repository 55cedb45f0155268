"""Signed shard manifests: the trust boundary of distributed studies.

A worker that executes a slice of a study's shard layout
(:mod:`repro.study.distributed`, ``repro study shard``) leaves behind two
artifacts: the shard bundles in its :class:`~repro.study.results.StudyStore`
directory and one **manifest** — a JSON sidecar declaring exactly what the
worker claims to have computed:

* the study identity (name, engine, :attr:`~repro.study.spec.StudySpec.compute_hash`,
  case count, CRN seed root and seed mode, ``repro`` version);
* the **global** shard layout the slice was cut from (so a merge can prove
  every worker agreed on one layout);
* the worker's position (``worker`` of ``of``) and, per bundle holding
  shards it owns, the bundle's content checksum — the very checksum
  :class:`~repro.scenario.cache.ArrayCache` stamped into the ``.bundle``
  header at write time, which also names the bundle file — with the case
  range and row offset of each of those shards.

The document is **signed**: the file stores ``{"manifest": payload,
"signature": sha256(canonical-json(payload))}``.  The signature is not a
secret-key MAC — it is a tamper-*evidence* seal in the spirit of the store
checksums: a hand-edited case range, a swapped checksum or a torn write
fails verification on load (:exc:`~repro.errors.ManifestError`), and a
bundle swapped on disk without updating the manifest fails the merge's
checksum cross-check (:exc:`~repro.errors.MergeValidationError`).  Either
way the merge refuses quietly-wrong inputs instead of producing a
quietly-wrong table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ManifestError
from repro.study.results import StudyStore
from repro.study.spec import StudySpec

__all__ = ["MANIFEST_VERSION", "ShardEntry", "ShardManifest",
           "build_manifest", "default_manifest_name", "load_manifest",
           "sign_payload", "write_manifest"]

#: Schema version of the manifest payload; bumped on incompatible change
#: (version 2 dropped the ``backend`` field of version 1; version 3 attests
#: bundles, each with the shard ranges it covers, instead of one bundle per
#: shard).
MANIFEST_VERSION = 3

_PAYLOAD_KEYS = {"manifest_version", "study", "engine", "compute_hash",
                 "case_count", "seed", "seed_mode", "version",
                 "worker", "of", "layout", "bundles"}

_BUNDLE_KEYS = {"checksum", "shards"}

_ENTRY_KEYS = {"index", "start", "stop", "offset"}


def sign_payload(payload: dict) -> str:
    """SHA-256 signature over the canonical JSON form of ``payload``.

    Canonical means ``sort_keys`` + minimal separators, so the signature is
    independent of mapping order and whitespace — the same document always
    signs identically, and any semantic edit changes the signature.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_manifest_name(spec: StudySpec, worker: int, of: int) -> str:
    """Conventional manifest filename of worker ``worker`` of ``of``.

    Includes the spec's hash prefix (so one directory can host slices of
    several studies) and ends in ``.json`` — outside the store's
    ``*.bundle`` shard namespace.
    """
    return f"{spec.compute_hash[:40]}-manifest-w{worker:03d}of{of:03d}.json"


@dataclass(frozen=True)
class ShardEntry:
    """One shard a worker claims: its range and the bundle that holds it.

    Attributes
    ----------
    index:
        Shard index in the global layout.
    start / stop:
        The shard's ``[start, stop)`` case range.
    checksum:
        The verified header checksum of the bundle holding the shard at
        manifest time, which is also the bundle's store key.
    offset:
        Row of the shard's first case in that bundle.
    """

    index: int
    start: int
    stop: int
    checksum: str
    offset: int


@dataclass(frozen=True)
class ShardManifest:
    """A worker's signed claim over one slice of a study's shard layout.

    Attributes
    ----------
    study / engine / compute_hash / case_count / seed / seed_mode / version:
        Study identity and provenance (``version`` is the ``repro``
        release that produced the bundles).
    worker / of:
        This worker's position in the ``of``-way split.
    layout:
        The *global* shard layout ``((start, stop), ...)`` every worker of
        the split must agree on.
    shards:
        The :class:`ShardEntry` rows this worker owns, in shard order.
    """

    study: str
    engine: str
    compute_hash: str
    case_count: int
    seed: int
    seed_mode: str
    version: str
    worker: int
    of: int
    layout: tuple[tuple[int, int], ...]
    shards: tuple[ShardEntry, ...]

    def shard_indices(self) -> tuple[int, ...]:
        """Global layout indices of the shards this worker claims."""
        return tuple(entry.index for entry in self.shards)

    def bundles(self) -> dict[str, list[ShardEntry]]:
        """The claimed shards grouped by bundle checksum, in shard order."""
        grouped: dict[str, list[ShardEntry]] = {}
        for entry in self.shards:
            grouped.setdefault(entry.checksum, []).append(entry)
        return grouped

    def to_payload(self) -> dict:
        """The JSON payload that gets signed and written."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "study": self.study,
            "engine": self.engine,
            "compute_hash": self.compute_hash,
            "case_count": self.case_count,
            "seed": self.seed,
            "seed_mode": self.seed_mode,
            "version": self.version,
            "worker": self.worker,
            "of": self.of,
            "layout": [[start, stop] for start, stop in self.layout],
            "bundles": [{"checksum": checksum,
                         "shards": [{"index": e.index, "start": e.start,
                                     "stop": e.stop, "offset": e.offset}
                                    for e in entries]}
                        for checksum, entries in self.bundles().items()],
        }

    @classmethod
    def from_payload(cls, payload: dict, source: str = "<payload>"
                     ) -> "ShardManifest":
        """Validate a parsed payload into a manifest.

        Args:
            payload: The decoded ``"manifest"`` mapping.
            source: Label used in error messages (usually the file path).

        Returns:
            The validated manifest.

        Raises:
            ManifestError: On a non-mapping payload, an unsupported
                ``manifest_version`` (checked first, so an older manifest
                is named by its version), unknown or missing keys, or
                malformed layout/bundle/shard entries.
        """
        if not isinstance(payload, dict):
            raise ManifestError(
                f"{source}: manifest payload must be a mapping, "
                f"got {type(payload).__name__}")
        version = payload.get("manifest_version", MANIFEST_VERSION)
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"{source}: unsupported manifest_version {version!r} "
                f"(this build reads {MANIFEST_VERSION})")
        unknown = set(payload) - _PAYLOAD_KEYS
        missing = _PAYLOAD_KEYS - set(payload)
        if unknown or missing:
            raise ManifestError(
                f"{source}: manifest keys mismatch — unknown "
                f"{sorted(unknown)}, missing {sorted(missing)}")
        layout = payload["layout"]
        if (not isinstance(layout, list) or not layout
                or not all(isinstance(r, list) and len(r) == 2
                           and all(isinstance(v, int) for v in r)
                           for r in layout)):
            raise ManifestError(
                f"{source}: 'layout' must be a non-empty list of "
                f"[start, stop] integer pairs")
        bundles = payload["bundles"]
        if not isinstance(bundles, list) or not all(
                isinstance(b, dict) and set(b) == _BUNDLE_KEYS
                and isinstance(b["shards"], list) for b in bundles):
            raise ManifestError(
                f"{source}: 'bundles' must be a list of mappings with keys "
                f"{sorted(_BUNDLE_KEYS)} and a list of shards")
        shards = []
        for bundle in bundles:
            for entry in bundle["shards"]:
                if not isinstance(entry, dict) or set(entry) != _ENTRY_KEYS:
                    raise ManifestError(
                        f"{source}: each shard entry must be a mapping with "
                        f"keys {sorted(_ENTRY_KEYS)}")
                try:
                    shards.append(ShardEntry(
                        index=int(entry["index"]), start=int(entry["start"]),
                        stop=int(entry["stop"]),
                        checksum=str(bundle["checksum"]),
                        offset=int(entry["offset"])))
                except (TypeError, ValueError) as exc:
                    raise ManifestError(
                        f"{source}: malformed shard entry {entry!r}: {exc}"
                    ) from None
        shards.sort(key=lambda entry: entry.index)
        try:
            return cls(
                study=str(payload["study"]), engine=str(payload["engine"]),
                compute_hash=str(payload["compute_hash"]),
                case_count=int(payload["case_count"]),
                seed=int(payload["seed"]),
                seed_mode=str(payload["seed_mode"]),
                version=str(payload["version"]),
                worker=int(payload["worker"]), of=int(payload["of"]),
                layout=tuple((int(s), int(e)) for s, e in layout),
                shards=tuple(shards))
        except (TypeError, ValueError) as exc:
            raise ManifestError(
                f"{source}: malformed manifest field: {exc}") from None


def build_manifest(spec: StudySpec, store: StudyStore,
                   layout: list[tuple[int, int]], shard_indices,
                   worker: int, of: int) -> ShardManifest:
    """Assemble a manifest from the bundles a slice run left in ``store``.

    Every claimed shard is re-verified against the disk right here: the
    store's run record names the bundle holding it, and that bundle's
    checksum is recomputed from its bytes, once per bundle
    (:meth:`~repro.study.results.StudyStore.verified_shards`), so a
    manifest never attests to a bundle that is absent, torn or already
    tampered.

    Args:
        spec: The study the slice belongs to.
        store: The worker's store holding the completed shard bundles.
        layout: The global shard layout of the run.
        shard_indices: Layout indices this worker owns.
        worker: Worker position in the split.
        of: Total workers in the split.

    Returns:
        The manifest (unsigned until :func:`write_manifest`).

    Raises:
        ManifestError: When a claimed shard bundle is missing from the
            store or fails its checksum verification.
    """
    indices = sorted(int(i) for i in shard_indices)
    found = store.verified_shards(spec, [layout[i] for i in indices])
    return _attest(spec, layout, indices, found, worker, of)


def _attest(spec: StudySpec, layout: list[tuple[int, int]],
            indices: list[int], found: dict, worker: int,
            of: int) -> ShardManifest:
    """The manifest of the sorted layout ``indices``, from ``found`` —
    what :meth:`~repro.study.results.StudyStore.verified_shards` returned
    for them (or for a superset)."""
    from repro import __version__

    entries = []
    for index in indices:
        start, stop = layout[index]
        if (start, stop) not in found:
            raise ManifestError(
                f"shard {index} (cases [{start}:{stop})) of {spec.name!r} "
                f"is missing from the store or fails its checksum — "
                f"cannot attest to it in a manifest")
        _, checksum, offset = found[(start, stop)]
        entries.append(ShardEntry(index=index, start=start, stop=stop,
                                  checksum=checksum, offset=offset))
    return ShardManifest(
        study=spec.name, engine=spec.engine,
        compute_hash=spec.compute_hash, case_count=spec.case_count,
        seed=int(spec.seed), seed_mode=spec.seed_mode, version=__version__,
        worker=int(worker), of=int(of),
        layout=tuple((int(s), int(e)) for s, e in layout),
        shards=tuple(entries))


def write_manifest(manifest: ShardManifest, path: str | Path) -> Path:
    """Sign and write a manifest document.

    Args:
        manifest: The manifest to persist.
        path: Output file (parents are created).

    Returns:
        The resolved path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = manifest.to_payload()
    document = {"manifest": payload, "signature": sign_payload(payload)}
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_manifest(path: str | Path) -> ShardManifest:
    """Load, signature-verify and validate a manifest document.

    Args:
        path: The manifest file.

    Returns:
        The verified :class:`ShardManifest`.

    Raises:
        ManifestError: On unreadable files, invalid JSON, a missing
            ``manifest``/``signature`` envelope, a signature that does not
            match the payload (tampering or a torn write), or any payload
            schema violation.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise ManifestError(
            f"cannot read manifest {str(path)!r}: {exc}") from None
    except ValueError as exc:
        raise ManifestError(
            f"manifest {str(path)!r} is not valid JSON: {exc}") from None
    if (not isinstance(document, dict)
            or set(document) != {"manifest", "signature"}):
        raise ManifestError(
            f"manifest {str(path)!r} must be a "
            f"{{'manifest': ..., 'signature': ...}} document")
    payload = document["manifest"]
    signature = document["signature"]
    if not isinstance(payload, dict) or not isinstance(signature, str):
        raise ManifestError(
            f"manifest {str(path)!r}: envelope types are wrong "
            f"(payload must be a mapping, signature a hex string)")
    if sign_payload(payload) != signature:
        raise ManifestError(
            f"manifest {str(path)!r} fails its signature — the document "
            f"was edited or torn after signing")
    return ShardManifest.from_payload(payload, source=str(path))
