"""Tests for the persistent result store (repro.engine.store).  The
file-format cases every log shares are in tests/test_jsonl.py."""

import pytest

from repro.engine import (
    LEASE,
    RESTART,
    RETRY,
    SESSION,
    STORE_SCHEMA_VERSION,
    ResultStore,
    experiment_key,
    merge_stores,
    read_records,
)


class TestKeys:
    def test_stable_and_order_insensitive(self):
        desc = {"seed": 3, "site": {"module_name": "1.conv1", "kind": "forward"}}
        same = {"site": {"kind": "forward", "module_name": "1.conv1"}, "seed": 3}
        assert experiment_key(0, desc) == experiment_key(0, same)

    def test_index_disambiguates_duplicate_faults(self):
        desc = {"seed": 3}
        assert experiment_key(0, desc) != experiment_key(1, desc)


class TestStoreLifecycle:
    def test_create_append_reload(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path, kind="campaign", meta={"workload": "w"}) as store:
            store.append("k1", {"outcome": "masked"})
            store.append("k2", {"outcome": "sdc"})
        with ResultStore(path, resume=True) as store:
            assert store.completed == {"k1": {"outcome": "masked"},
                                       "k2": {"outcome": "sdc"}}
            assert store.kind == "campaign"
            assert store.meta == {"workload": "w"}
            assert "k1" in store and "k3" not in store

    def test_append_idempotent(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append("k1", {"outcome": "masked"})
            store.append("k1", {"outcome": "other"})
        records = read_records(path)
        assert len(records) == 2  # header + one experiment
        assert records[1]["payload"] == {"outcome": "masked"}

    def test_refuses_to_clobber_without_resume(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).close()
        with pytest.raises(FileExistsError, match="resume"):
            ResultStore(path)

    def test_quarantine_round_trips(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.quarantine("bad", "timeout after 5.0s", {"seed": 7})
        with ResultStore(path, resume=True) as store:
            assert store.quarantined == {"bad": "timeout after 5.0s"}
            assert store.quarantine_payloads["bad"] == {"seed": 7}
            assert "bad" in store


class TestSchema:
    def test_header_carries_current_version(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).close()
        header = read_records(path)[0]
        assert header["schema"] == STORE_SCHEMA_VERSION


class TestCrashTolerance:
    def test_truncated_trailing_line_ignored(self, tmp_path):
        """A run killed mid-write leaves a partial final line; resume must
        keep everything before it."""
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append("k1", {"outcome": "masked"})
        with open(path, "a") as fh:
            fh.write('{"record": "experiment", "key": "k2", "payl')
        with ResultStore(path, resume=True) as store:
            assert set(store.completed) == {"k1"}
            # The reopened store stays appendable.
            store.append("k3", {"outcome": "sdc"})

    def test_resume_after_torn_record_never_glues_onto_it(self, tmp_path):
        """A resume cuts the torn line off before appending: the store
        reads back whole, and resumes again."""
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append("a", {"outcome": "masked"})
            store.append("b", {"outcome": "sdc"})
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 20)
        with ResultStore(path, resume=True) as store:
            assert set(store.completed) == {"a"}
            store.append("b", {"outcome": "sdc"})
            store.append("c", {"outcome": "masked"})
        assert [r["key"] for r in read_records(path)[1:]] == ["a", "b", "c"]
        with ResultStore(path, resume=True) as store:
            assert set(store.completed) == {"a", "b", "c"}


class TestMerge:
    def _shard(self, path, keys, quarantined=()):
        with ResultStore(path, kind="campaign", meta={"workload": "w"}) as s:
            for key in keys:
                s.append(key, {"outcome": "masked", "from": path.name})
            for key in quarantined:
                s.quarantine(key, "crash", {"seed": 1})

    def test_merge_dedups_by_key(self, tmp_path):
        self._shard(tmp_path / "a.jsonl", ["k1", "k2"])
        self._shard(tmp_path / "b.jsonl", ["k2", "k3"])
        with merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                          tmp_path / "out.jsonl") as merged:
            assert sorted(merged.completed) == ["k1", "k2", "k3"]
            # First shard wins for duplicate keys.
            assert merged.completed["k2"]["from"] == "a.jsonl"

    def test_completion_beats_quarantine(self, tmp_path):
        """If any shard finished an experiment another shard quarantined,
        the real result wins."""
        self._shard(tmp_path / "a.jsonl", [], quarantined=["k1"])
        self._shard(tmp_path / "b.jsonl", ["k1"])
        with merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                          tmp_path / "out.jsonl") as merged:
            assert sorted(merged.completed) == ["k1"]
            assert merged.quarantined == {}

    def test_kind_mismatch_rejected(self, tmp_path):
        ResultStore(tmp_path / "a.jsonl", kind="campaign").close()
        ResultStore(tmp_path / "b.jsonl", kind="inference").close()
        with pytest.raises(ValueError, match="different kinds"):
            merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                         tmp_path / "out.jsonl")

    def test_another_campaigns_store_is_refused(self, tmp_path):
        """A `yolo` seed-9 store merged after a `resnet` seed-0 store
        used to come out headed `resnet` / seed 0, holding both
        experiments at index 0."""
        config = {"workload": "resnet", "seed": 0, "backend": "inprocess"}
        for name, meta in (
                ("a", {"workload": "resnet", "config": config}),
                ("b", {"workload": "yolo", "config": dict(
                    config, workload="yolo", seed=9)}),
                # Outcomes do not depend on the backend: one campaign.
                ("c", {"workload": "resnet", "config": dict(
                    config, backend="batched")})):
            with ResultStore(tmp_path / f"{name}.jsonl", meta=meta) as store:
                # c holds another experiment of a's campaign.
                store.append(f"{name}0", {"outcome": "masked",
                                          "index": int(name == "c")})
        with pytest.raises(ValueError, match=r"b\.jsonl: its campaign config "
                                             r"differs .* in seed, workload$"):
            merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
                         tmp_path / "out.jsonl")
        assert not (tmp_path / "out.jsonl").exists()
        with merge_stores([tmp_path / "a.jsonl", tmp_path / "c.jsonl"],
                          tmp_path / "out.jsonl") as merged:
            assert sorted(merged.completed) == ["a0", "c0"]


class TestEngineRecords:
    def test_readers_skip_what_the_engine_notes(self, tmp_path, fsyncs):
        """Session, lease, retry and restart records are flushed without
        an fsync of their own, and a resume reads past them."""
        path = tmp_path / "s.jsonl"
        with ResultStore(path, kind="campaign") as store:
            store.note(SESSION, total=2, skipped=0)
            store.note(LEASE, worker=0, keys=["k1", "k2"], deadline=None)
            store.note(RETRY, key="k2", attempt=1, error="boom")
            store.note(RESTART, worker=0)
            assert len(fsyncs) == 1  # the header's
            assert [r["record"] for r in read_records(path)[1:]] == \
                [SESSION, LEASE, RETRY, RESTART]
            with store.group():
                store.append("k1", {"outcome": "masked"})
            assert len(fsyncs) == 2
        with ResultStore(path, resume=True) as store:
            assert store.completed == {"k1": {"outcome": "masked"}}
            assert store.quarantined == {}
