"""Store-damage coverage: the disk cache layer must never raise.

Truncated bundles, zero-byte files, malformed headers, wrong-checksum
tampering and an unwritable ``cache_dir`` mid-run must each
quarantine/recompute (or degrade to memory-only) instead of raising through
the engine.  Exercised at both layers — :class:`repro.scenario.cache.ArrayCache`
directly, and :class:`repro.study.StudyStore` through a full ``run_study``.
"""

import json
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.scenario.cache import (
    QUARANTINE_DIR,
    ArrayCache,
    ProfileCache,
    _bundle_checksum,
)
from repro.study import StudyStore, parse_study, run_study, scan_journal

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
"""

MAGIC = b"repro-bundle 1\n"


class VectorCache(ArrayCache):
    """Minimal concrete cache: values are 1-D float arrays."""

    def _pack(self, value):
        return {"v": np.asarray(value, dtype=np.float64)}

    def _unpack(self, arrays):
        return arrays["v"]


class DictCache(ArrayCache):
    """Concrete cache whose values are the packed arrays themselves."""

    def _pack(self, value):
        return value

    def _unpack(self, arrays):
        return arrays


def fresh_cache(tmp_path):
    """A disk-backed cache holding one entry, with the memory layer dropped
    so the next ``get_by_hash`` must go through the disk path."""
    cache = VectorCache(cache_dir=tmp_path)
    cache.put_by_hash("k1", np.arange(5.0))
    cache._memory.clear()
    return cache


def bundle_path(tmp_path) -> Path:
    return tmp_path / "k1.bundle"


def split_bundle(data: bytes) -> tuple[dict, bytes]:
    """``(header, body)`` of a bundle file's bytes."""
    (length,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(data[start:start + length]), data[start + length:]


def join_bundle(header: dict, body: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(raw)) + raw + body


def good_header_and_body(tmp_path) -> tuple[dict, bytes]:
    return split_bundle(bundle_path(tmp_path).read_bytes())


def _truncated(tmp_path):
    return bundle_path(tmp_path).read_bytes()[:40]


def _tampered_body(tmp_path):
    # Structurally valid, same header (and checksum), one value changed.
    header, _ = good_header_and_body(tmp_path)
    return join_bundle(header, (np.arange(5.0) + 1.0).tobytes())


def _header_past_eof(tmp_path):
    data = bundle_path(tmp_path).read_bytes()
    return MAGIC + struct.pack("<Q", len(data)) + data[len(MAGIC) + 8:]


def _nbytes_mismatch(tmp_path):
    header, body = good_header_and_body(tmp_path)
    header["arrays"][0][3] = 32
    return join_bundle(header, body[:32])


def _negative_shape(tmp_path):
    header, body = good_header_and_body(tmp_path)
    header["arrays"][0][2] = [-1]
    header["arrays"][0][3] = -8
    return join_bundle(header, body)


def _object_dtype(tmp_path):
    header, body = good_header_and_body(tmp_path)
    header["arrays"][0][1] = "|O"
    return join_bundle(header, body)


def _void_dtype(tmp_path):
    header, body = good_header_and_body(tmp_path)
    header["arrays"][0][1] = "|V8"
    return join_bundle(header, body)


def _zero_itemsize(tmp_path):
    header, _ = good_header_and_body(tmp_path)
    header["arrays"][0][1:] = ["<U0", [5], 0]
    return join_bundle(header, b"")


def _trailing_bytes(tmp_path):
    return bundle_path(tmp_path).read_bytes() + b"\x00"


def _no_checksum(tmp_path):
    header, body = good_header_and_body(tmp_path)
    del header["checksum"]
    return join_bundle(header, body)


def _header_not_json(tmp_path):
    return MAGIC + struct.pack("<Q", 4) + b"{{{{" + b"\x00" * 40


def _short_entry(tmp_path):
    header, body = good_header_and_body(tmp_path)
    header["arrays"][0] = header["arrays"][0][:3]
    return join_bundle(header, body)


#: Damaged bundle contents, each built from the clean ``k1`` bundle.
DAMAGE = {
    "truncated": _truncated,
    "zero_bytes": lambda tmp_path: b"",
    "tampered_body": _tampered_body,
    "bad_magic": lambda tmp_path: b"not a bundle at all, just text",
    "zip_magic": lambda tmp_path: b"PK\x03\x04torn-by-fault-injection",
    "magic_only": lambda tmp_path: MAGIC,
    "header_past_eof": _header_past_eof,
    "nbytes_mismatch": _nbytes_mismatch,
    "negative_shape": _negative_shape,
    "object_dtype": _object_dtype,
    "void_dtype": _void_dtype,
    "zero_itemsize": _zero_itemsize,
    "trailing_bytes": _trailing_bytes,
    "no_checksum": _no_checksum,
    "header_not_json": _header_not_json,
    "short_entry": _short_entry,
}


class TestDamagedBundles:
    def test_clean_round_trip_via_disk(self, tmp_path):
        cache = fresh_cache(tmp_path)
        value = cache.get_by_hash("k1")
        np.testing.assert_array_equal(value, np.arange(5.0))
        assert cache.quarantined == 0

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_a_quarantined_miss(self, tmp_path, damage):
        cache = fresh_cache(tmp_path)
        path = bundle_path(tmp_path)
        path.write_bytes(DAMAGE[damage](tmp_path))
        assert cache.get_by_hash("k1") is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIR / "k1.bundle").exists()

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_fails_verification_in_place(self, tmp_path, damage):
        cache = fresh_cache(tmp_path)
        path = bundle_path(tmp_path)
        path.write_bytes(DAMAGE[damage](tmp_path))
        assert cache.load_verified("k1") is None
        # A merge validator owns the evidence: nothing is moved.
        assert path.exists() and cache.quarantined == 0

    def test_legacy_npz_is_ignored(self, tmp_path):
        # A store written by an older release: the zip is neither read nor
        # quarantined; the key is a miss and recomputes.
        cache = VectorCache(cache_dir=tmp_path)
        legacy = tmp_path / "k1.npz"
        np.savez(legacy, v=np.arange(5.0))
        assert cache.get_by_hash("k1") is None
        assert cache.load_verified("k1") is None
        assert cache.quarantined == 0 and legacy.exists()
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_recompute_after_quarantine_round_trips(self, tmp_path):
        cache = fresh_cache(tmp_path)
        bundle_path(tmp_path).write_bytes(b"")
        assert cache.get_by_hash("k1") is None
        cache.put_by_hash("k1", np.arange(5.0))
        cache._memory.clear()
        np.testing.assert_array_equal(cache.get_by_hash("k1"), np.arange(5.0))

    def test_bundle_is_checksummed_on_disk(self, tmp_path):
        fresh_cache(tmp_path)
        header, body = good_header_and_body(tmp_path)
        assert header["checksum"] == _bundle_checksum({"v": np.arange(5.0)})
        assert header["arrays"] == [["v", "<f8", [5], 40]]
        assert body == np.arange(5.0).tobytes()


class TestBundleFormat:
    VALUES = {
        "scalar": np.array(3.5),
        "scalar_str": np.array("x", dtype=np.str_),
        "empty": np.zeros((0, 3)),
        "empty_str": np.array([], dtype=np.str_),
        "unicode": np.array(["a", "h\u00e9llo", "\u2603"]),
        "bytes": np.array([b"xy", b""]),
        "bool": np.array([[True, False], [False, True]]),
        "int32": np.arange(6, dtype=np.int32).reshape(2, 3),
        "uint8": np.array([0, 255], dtype=np.uint8),
        "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        "big_endian": np.array([1.5, -2.0], dtype=">f8"),
        "float": np.array([np.nan, np.inf, -0.0, 1e-300]),
    }

    def test_round_trip_is_exact_and_writeable(self, tmp_path):
        cache = DictCache(cache_dir=tmp_path)
        cache.put_by_hash("k", dict(self.VALUES))
        cache._memory.clear()
        loaded = cache.get_by_hash("k")
        assert list(loaded) == list(self.VALUES)
        for name, value in self.VALUES.items():
            got = loaded[name]
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
            assert got.flags.writeable, name
        assert cache.load_verified("k")[1] == _bundle_checksum(self.VALUES)

    def test_body_is_8_byte_aligned(self, tmp_path):
        cache = DictCache(cache_dir=tmp_path)
        cache.put_by_hash("k", {"v": np.arange(3.0)})
        data = (tmp_path / "k.bundle").read_bytes()
        (length,) = struct.unpack_from("<Q", data, len(MAGIC))
        assert (len(MAGIC) + 8 + length) % 8 == 0
        assert len(data) == len(MAGIC) + 8 + length + 24

    def test_object_arrays_are_refused_at_write(self, tmp_path):
        cache = DictCache(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="dtype"):
            cache.put_by_hash("k", {"o": np.array([object()])})
        assert not list(tmp_path.glob("*.bundle"))


class TestConcurrentWriters:
    """Threads of one process share the pid: temp names must not collide."""

    def test_concurrent_puts_of_one_key(self, tmp_path):
        cache = VectorCache(cache_dir=tmp_path)

        def writer(offset):
            for i in range(500):
                cache.put_by_hash("k1", np.arange(5.0) + offset)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.disk_errors == 0
        assert cache.load_verified("k1") is not None
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]

    def test_concurrent_run_record_appends(self, tmp_path):
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path)

        def writer():
            for _ in range(500):
                store.begin_run(spec)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.disk_errors == 0
        # Every append is one whole line: none torn, none interleaved.
        lines, skipped = scan_journal(
            tmp_path / f"{spec.compute_hash[:40]}-run.jsonl")
        assert len(lines) == 1000 and skipped == 0
        assert store.run_record(spec).header["compute_hash"] \
            == spec.compute_hash
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]


class TestUnwritableCacheDir:
    def test_write_degrades_to_memory_only(self, tmp_path):
        cache = VectorCache(cache_dir=tmp_path)
        # Yank the directory out from under the cache mid-run: subsequent
        # writes hit OSError.  (chmod is ineffective as root, so replace the
        # directory with a regular file instead.)
        cache.cache_dir = tmp_path / "gone" / "deeper"
        cache.put_by_hash("k1", np.arange(3.0))
        assert cache.disk_errors == 1
        np.testing.assert_array_equal(cache.get_by_hash("k1"), np.arange(3.0))

    def test_engine_survives_unwritable_store(self, tmp_path):
        store = StudyStore(cache_dir=tmp_path / "store")
        store.cache_dir = tmp_path / "blocker" / "store"
        (tmp_path / "blocker").write_text("a file where a dir should be")
        spec = parse_study(MC_TEXT)
        report = run_study(spec, shards=2, store=store)
        assert not report.partial
        assert store.disk_errors >= 2  # record header and bundle degraded
        assert len(report.table) == 4


class TestStudyStoreDamage:
    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        store = StudyStore(cache_dir=tmp_path)
        run_study(parse_study(MC_TEXT), shards=2, store=store)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert not leftovers

    def test_every_attempt_is_one_verified_bundle(self, tmp_path):
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path)
        run_study(spec, shards=2, store=store)
        bundles = sorted(tmp_path.glob("*.bundle"))
        assert len(bundles) == 1  # one inline attempt, both shards
        recorded = store.run_record(spec)
        assert recorded.stored_ranges() == [(0, 2), (2, 4)]
        assert recorded.shards == {(0, 2): (bundles[0].stem, 0, 2),
                                   (2, 4): (bundles[0].stem, 2, 4)}
        for start, stop in recorded.stored_ranges():
            # The bundle is named after its verified content checksum.
            assert store.shard_checksum(spec, start, stop) == bundles[0].stem

    def test_damaged_shard_recomputed_not_raised(self, tmp_path):
        spec = parse_study(MC_TEXT)
        # Two runs, two bundles: shard 0, then shard 1.
        run_study(spec, shards=2, max_shards=1,
                  store=StudyStore(cache_dir=tmp_path))
        run_study(spec, shards=2, store=StudyStore(cache_dir=tmp_path))
        clean = run_study(spec, shards=2,
                          store=StudyStore(cache_dir=tmp_path)).table.long()
        key, _, _ = StudyStore(cache_dir=tmp_path).run_record(
            spec).shards[(0, 2)]
        victim = StudyStore(cache_dir=tmp_path).bundle_path(key)
        victim.write_bytes(victim.read_bytes()[:100])
        store = StudyStore(cache_dir=tmp_path)
        report = run_study(spec, shards=2, store=store)
        assert report.table.long() == clean
        assert store.quarantined == 1
        assert report.reused_shards == 1 and report.computed_shards == 1


class TestProfileCacheStillWorks:
    """The hardening must not disturb the existing ProfileCache contract."""

    def test_profile_round_trip_with_checksum(self, tmp_path):
        from repro.radio.batch import evaluate_scenarios
        from repro.scenario.spec import Scenario

        cache = ProfileCache(cache_dir=tmp_path)
        scenario = Scenario.uniform(2000.0, 4, resolution_m=100.0)
        (profile,) = evaluate_scenarios([scenario], cache=cache)
        cache._memory.clear()
        again = cache.get(scenario)
        np.testing.assert_array_equal(profile.snr_db, again.snr_db)
        assert cache.quarantined == 0
