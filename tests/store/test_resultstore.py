"""Contract tests for the content-addressed experiment result store.

Torn recovery, concurrency, census/prune and resolution are the
keyed-entry layer's, tested once per codec in
``tests/core/test_progcache.py``; this module covers what only the
result store has: derived keys, config signatures, merge and bundles.
"""

from __future__ import annotations

import json

import pytest

from repro.sim.config import HaacConfig
from repro.sim.dram import HBM2
from repro.store import ResultStore, config_signature, result_key

DIGEST = "a" * 64
SIG = "b" * 64
SCHEMA = "repro.test_point/v1"
PAYLOAD = {"runtime_cycles": 123.5, "n_and": 7}


def _put(store, payload=PAYLOAD, digest=DIGEST, schema=SCHEMA):
    return store.put(digest, SIG, schema, payload)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put(store)
        assert store.get(DIGEST, SIG, SCHEMA) == PAYLOAD
        assert store.path_for(key).exists()
        assert store.stats.puts == 1
        assert store.stats.hits == 1

    def test_cold_store_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(DIGEST, SIG, SCHEMA) is None
        assert store.stats.misses == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        _put(ResultStore(tmp_path))
        fresh = ResultStore(tmp_path)
        assert fresh.get(DIGEST, SIG, SCHEMA) == PAYLOAD

    def test_distinct_schema_distinct_key(self, tmp_path):
        store = ResultStore(tmp_path)
        _put(store, payload={"v": 1}, schema="repro.a/v1")
        _put(store, payload={"v": 2}, schema="repro.b/v1")
        assert store.get(DIGEST, SIG, "repro.a/v1") == {"v": 1}
        assert store.get(DIGEST, SIG, "repro.b/v1") == {"v": 2}
        assert store.entry_count() == 2

    def test_entry_envelope_is_unchanged(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put(store)
        assert store.path_for(key).read_text() == json.dumps(
            {
                "store_schema": 1,
                "key": key,
                "program_digest": DIGEST,
                "config_signature": SIG,
                "bench_schema": SCHEMA,
                "payload": PAYLOAD,
            },
            sort_keys=True,
            indent=1,
        ) + "\n"

    def test_key_is_stable_and_hex(self):
        key = result_key(DIGEST, SIG, SCHEMA)
        assert key == result_key(DIGEST, SIG, SCHEMA)
        assert len(key) == 64
        int(key, 16)


class TestConfigSignature:
    def test_hardware_field_changes_signature(self):
        base = HaacConfig()
        assert config_signature(base) != config_signature(
            HaacConfig(n_ges=base.n_ges * 2)
        )
        assert config_signature(base) != config_signature(
            HaacConfig(dram=HBM2)
        )

    def test_software_substrate_fields_do_not(self):
        # Engine equivalence is bit-exact, so results are shared across
        # engines/backends: the signature must not fracture on them.
        base = HaacConfig()
        variant = HaacConfig(sim_engine="reference", gc_backend="scalar")
        assert config_signature(base) == config_signature(variant)


class TestTornEntryRecovery:
    def test_tampered_payload_key_mismatch_dropped(self, tmp_path):
        store = ResultStore(tmp_path, memory=False)
        key = _put(store)
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["bench_schema"] = "repro.other/v9"  # key no longer derives
        path.write_text(json.dumps(entry))
        assert store.get(DIGEST, SIG, SCHEMA) is None
        assert store.stats.corrupt == 1


class TestMerge:
    def test_disjoint_merge_adds_everything(self, tmp_path):
        ours = ResultStore(tmp_path / "ours")
        theirs = ResultStore(tmp_path / "theirs")
        _put(ours, payload={"v": 1}, digest="a" * 64)
        _put(theirs, payload={"v": 2}, digest="c" * 64)
        report = ours.merge(theirs)
        assert report.as_dict() == {
            "added": 1, "identical": 0, "conflicts": 0,
            "replaced": 0, "corrupt": 0,
        }
        assert ours.get("c" * 64, SIG, SCHEMA) == {"v": 2}

    def test_identical_entries_counted_not_rewritten(self, tmp_path):
        ours = ResultStore(tmp_path / "ours")
        theirs = ResultStore(tmp_path / "theirs")
        _put(ours)
        _put(theirs)
        report = ours.merge(str(theirs.root))  # path form, not instance
        assert report.identical == 1
        assert report.added == 0

    def test_conflict_keep_preserves_local(self, tmp_path):
        ours = ResultStore(tmp_path / "ours", memory=False)
        theirs = ResultStore(tmp_path / "theirs")
        _put(ours, payload={"v": "local"})
        _put(theirs, payload={"v": "remote"})
        report = ours.merge(theirs, policy="keep")
        assert (report.conflicts, report.replaced) == (1, 0)
        assert ours.get(DIGEST, SIG, SCHEMA) == {"v": "local"}

    def test_conflict_theirs_adopts_source(self, tmp_path):
        ours = ResultStore(tmp_path / "ours", memory=False)
        theirs = ResultStore(tmp_path / "theirs")
        _put(ours, payload={"v": "local"})
        _put(theirs, payload={"v": "remote"})
        report = ours.merge(theirs, policy="theirs")
        assert (report.conflicts, report.replaced) == (1, 1)
        assert ours.get(DIGEST, SIG, SCHEMA) == {"v": "remote"}

    def test_corrupt_source_entries_skipped(self, tmp_path):
        ours = ResultStore(tmp_path / "ours")
        theirs = ResultStore(tmp_path / "theirs")
        _put(theirs)
        (theirs.root / f"{'e' * 64}.json").write_text("torn")
        report = ours.merge(theirs)
        assert (report.added, report.corrupt) == (1, 1)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).merge(tmp_path, policy="ours")


class TestBundle:
    def test_bundle_round_trip(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        _put(source, payload={"v": 1}, digest="a" * 64)
        _put(source, payload={"v": 2}, digest="c" * 64)
        bundle = tmp_path / "results.bundle.json"
        assert source.save_bundle(bundle) == 2
        target = ResultStore(tmp_path / "dst")
        report = target.merge(bundle)
        assert report.added == 2
        assert target.get("a" * 64, SIG, SCHEMA) == {"v": 1}
        assert target.get("c" * 64, SIG, SCHEMA) == {"v": 2}

    def test_bundle_excludes_corrupt_entries(self, tmp_path):
        source = ResultStore(tmp_path / "src", memory=False)
        _put(source)
        (source.root / f"{'e' * 64}.json").write_text("torn")
        assert source.save_bundle(tmp_path / "b.json") == 1

    def test_non_bundle_file_rejected(self, tmp_path):
        bogus = tmp_path / "not_a_bundle.json"
        bogus.write_text(json.dumps({"entries": []}))
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "dst").merge(bogus)
