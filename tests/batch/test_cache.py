"""Verdict cache: LRU behaviour, persistence, corruption tolerance."""

import json
import threading

import pytest

from repro.batch import CACHE_FORMAT_VERSION, VerdictCache, VerdictSummary, content_digest

pytestmark = pytest.mark.batch


def summary(malicious=False, malscore=0.0, **kwargs):
    return VerdictSummary(malicious=malicious, malscore=malscore, **kwargs)


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = VerdictCache()
        cache.put("d1", summary(malicious=True, malscore=12.0))
        got = cache.get("d1")
        assert got is not None and got.malicious and got.malscore == 12.0

    def test_miss_and_hit_counters(self):
        cache = VerdictCache()
        assert cache.get("nope") is None
        cache.put("d1", summary())
        cache.get("d1")
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_eviction_drops_least_recently_used(self):
        cache = VerdictCache(max_entries=2)
        cache.put("a", summary())
        cache.put("b", summary())
        cache.get("a")  # refresh a
        cache.put("c", summary())  # evicts b
        assert cache.peek("a") is not None
        assert cache.peek("b") is None
        assert cache.peek("c") is not None

    def test_errored_verdicts_never_cached(self):
        cache = VerdictCache()
        cache.put("bad", summary(errored=True, error="parse failed"))
        assert cache.peek("bad") is None and len(cache) == 0

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            VerdictCache(max_entries=0)

    def test_concurrent_writers_lose_nothing(self):
        """32 threads hammering put/get: every stored digest must be
        retrievable afterwards with its own verdict."""
        cache = VerdictCache()
        digests = [f"{i:02x}" * 32 for i in range(32)]
        errors = []

        def work(digest, index):
            try:
                cache.put(digest, summary(malscore=index / 100.0))
                cache.get(digest)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(digest, index))
            for index, digest in enumerate(digests)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for index, digest in enumerate(digests):
            got = cache.get(digest)
            assert got is not None, digest
            assert got.malscore == pytest.approx(index / 100.0)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = VerdictCache(path=path, fingerprint="fp")
        cache.put("d1", summary(malicious=True, malscore=28.0,
                                features=("F8", "F10")))
        cache.save()

        fresh = VerdictCache(path=path, fingerprint="fp")
        got = fresh.get("d1")
        assert got is not None
        assert got.malicious and got.malscore == 28.0
        assert got.features == ("F8", "F10")

    def test_same_fingerprint_shares_the_file(self, tmp_path):
        path = tmp_path / "cache.json"
        writer = VerdictCache(path=path, fingerprint="fp")
        writer.put("d1", summary(malicious=True, malscore=12.0))
        writer.flush()
        reader = VerdictCache(path=path, fingerprint="fp")
        got = reader.get("d1")
        assert got is not None and got.malscore == 12.0

    @pytest.mark.parametrize("persisted", [False, True])
    def test_flush_and_close_are_safe(self, tmp_path, persisted):
        path = tmp_path / "cache.json" if persisted else None
        cache = VerdictCache(path=path)
        cache.put("d1", summary())
        cache.flush()
        cache.close()
        cache.close()
        assert cache.peek("d1") is not None
        if persisted:
            assert len(VerdictCache(path=path)) == 1

    def test_fingerprint_mismatch_discards(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = VerdictCache(path=path, fingerprint="settings-A")
        cache.put("d1", summary())
        cache.save()
        other = VerdictCache(path=path, fingerprint="settings-B")
        assert len(other) == 0

    def test_version_mismatch_discards(self, tmp_path):
        path = tmp_path / "cache.json"
        payload = {
            "version": CACHE_FORMAT_VERSION + 1,
            "fingerprint": "",
            "entries": {"d": summary().to_dict()},
        }
        path.write_text(json.dumps(payload))
        assert len(VerdictCache(path=path)) == 0

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        cache = VerdictCache(path=path)
        assert len(cache) == 0
        cache.put("d", summary())
        cache.save()  # and saving over the corrupt file works
        assert len(VerdictCache(path=path)) == 1

    def test_missing_file_is_fine(self, tmp_path):
        assert len(VerdictCache(path=tmp_path / "absent.json")) == 0

    def test_bad_entry_skipped_rest_loaded(self, tmp_path):
        path = tmp_path / "cache.json"
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": "",
            "entries": {
                "good": summary(malscore=3.0).to_dict(),
                "bad": {"nonsense": True},
            },
        }
        path.write_text(json.dumps(payload))
        cache = VerdictCache(path=path)
        assert cache.peek("good") is not None
        assert cache.peek("bad") is None


def test_content_digest_is_sha256_hex():
    digest = content_digest(b"hello")
    assert len(digest) == 64
    assert digest == content_digest(b"hello")
    assert digest != content_digest(b"hello!")
