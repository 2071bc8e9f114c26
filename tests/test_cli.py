"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.engine import ResultStore, read_records
from repro.observe import Tracer


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "resnet"])
        args.size = "tiny"
        assert args.workload == "resnet"
        assert args.iterations == 60

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "alexnet"])

    def test_removed_backend_rejected(self, capsys):
        """``multiprocess`` is gone from the CLI choices and from
        ``build_backend``, which names the backends that exist."""
        from repro.backend import build_backend

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["train", "resnet", "--backend", "multiprocess"])
        assert exc.value.code == 2
        assert "invalid choice: 'multiprocess'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="known: inprocess, batched$"):
            build_backend("multiprocess", None)

    def test_inject_fault_args(self):
        args = build_parser().parse_args([
            "inject", "resnet", "--group", "1", "--site", "2.conv1",
            "--kind", "forward", "--iteration", "5",
        ])
        assert args.group == 1
        assert args.site == "2.conv1"

    def test_campaign_engine_args(self):
        args = build_parser().parse_args([
            "campaign", "resnet", "--parallel", "4", "--store", "r.jsonl",
            "--resume", "--timeout", "30",
        ])
        assert args.parallel == 4
        assert args.store == "r.jsonl"
        assert args.resume is True
        assert args.timeout == 30.0


class TestCommands:
    def test_train(self, capsys):
        rc = main(["train", "resnet", "--iterations", "6", "--devices", "2",
                   "--report-every", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resnet fault-free" in out
        assert "iter     0" in out

    def test_inject_reports_outcome(self, capsys):
        rc = main(["inject", "resnet", "--group", "1", "--iteration", "4",
                   "--iterations", "12", "--devices", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault effect:" in out
        assert "outcome:" in out

    def test_campaign(self, capsys):
        rc = main(["campaign", "resnet", "--experiments", "3", "--devices", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# campaign: resnet (3 experiments)" in out
        assert "unexpected_rate " in out and "(n=3)" in out

    def test_validate(self, capsys):
        rc = main(["validate", "--experiments", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "match rate 100.0%" in out

    def test_mitigate_detects(self, capsys):
        rc = main(["mitigate", "resnet", "--group", "1", "--iteration", "5",
                   "--iterations", "20", "--devices", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "detected at iteration" in out
        assert "re-executed from" in out

    def test_datapath_bit_fault(self, capsys):
        rc = main(["inject", "resnet", "--bit", "3", "--iteration", "4",
                   "--iterations", "10", "--devices", "2"])
        assert rc == 0
        assert "outcome:" in capsys.readouterr().out

    def test_resume_requires_store(self, capsys):
        rc = main(["campaign", "resnet", "--experiments", "1", "--resume"])
        assert rc == 2
        assert "--resume requires --store" in capsys.readouterr().err


class TestEngineCommands:
    def test_campaign_store_report_merge(self, capsys, tmp_path):
        """Parallel campaign into a store, then report and merge it."""
        store = tmp_path / "r.jsonl"
        rc = main(["campaign", "resnet", "--experiments", "2", "--devices",
                   "2", "--parallel", "2", "--store", str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine: 2 executed, 0 resumed" in out
        # How it ran is in the store: the monitor reads it back.
        assert main(["monitor", str(store)]) == 0
        assert "progress   2/2 done | " in capsys.readouterr().out

        rc = main(["report", str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind campaign, schema 1, 2 experiments" in out
        assert "# campaign: resnet (2 experiments)" in out

        rc = main(["merge", str(tmp_path / "m.jsonl"), str(store), str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 experiments, 0 quarantined" in out

        # Another campaign's store is not merged into this one.
        header = read_records(store)[0]
        config = dict(header["meta"]["config"], seed=9)
        ResultStore(tmp_path / "other.jsonl",
                    meta=dict(header["meta"], config=config)).close()
        rc = main(["merge", str(tmp_path / "m2.jsonl"), str(store),
                   str(tmp_path / "other.jsonl")])
        assert rc == 2
        assert "config differs" in capsys.readouterr().err

    def test_store_clobber_without_resume_is_clean_error(self, capsys,
                                                         tmp_path):
        store = tmp_path / "r.jsonl"
        argv = ["campaign", "resnet", "--experiments", "1", "--devices", "2",
                "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--resume" in err

    def test_report_missing_store_is_clean_error(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_rejects_outcome_of_removed_backend(self, capsys, tmp_path):
        """A store from when ``replica_lost`` was an outcome: one-line
        operator error, not a traceback and not a Table 3 row."""
        store = tmp_path / "r.jsonl"
        assert main(["campaign", "resnet", "--experiments", "1", "--devices",
                     "2", "--store", str(store)]) == 0
        text, swapped = re.subn(r'"outcome":"\w+"', '"outcome":"replica_lost"',
                                store.read_text())
        assert swapped == 1
        store.write_text(text)
        capsys.readouterr()
        assert main(["report", str(store)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 'replica_lost' is not a valid Outcome\n"

    def test_campaign_resume_skips_finished(self, capsys, tmp_path):
        store = tmp_path / "r.jsonl"
        argv = ["campaign", "resnet", "--experiments", "2", "--devices", "2",
                "--store", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "engine: 0 executed, 2 resumed" in capsys.readouterr().out

    def test_campaign_resume_refuses_another_seed(self, capsys, tmp_path):
        """``--seed 1 --resume`` on a ``--seed 0`` store is an operator
        error, not a run that reports the seed-0 results as its own."""
        store = tmp_path / "r.jsonl"
        argv = ["campaign", "resnet", "--experiments", "1", "--devices", "2",
                "--store", str(store)]
        assert main(argv + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "1", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume") and "seed" in err

    def test_campaign_resume_refuses_another_campaign_seed(self, capsys,
                                                           tmp_path):
        """Another fault sample is another campaign: ``--campaign-seed 2
        --resume`` on a ``--campaign-seed 1`` store used to append its
        experiments next to the store's, at the same indexes."""
        store = tmp_path / "r.jsonl"
        argv = ["campaign", "resnet", "--experiments", "1", "--devices", "2",
                "--store", str(store)]
        assert main(argv + ["--campaign-seed", "1"]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--campaign-seed", "2", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume") and "not in this run" in err
        assert store.read_bytes() == before

    def test_campaign_resume_after_torn_record(self, capsys, tmp_path):
        """A campaign killed mid-write leaves its last record torn; the
        resume re-runs that experiment and the store reads back whole."""
        store = tmp_path / "r.jsonl"
        argv = ["campaign", "resnet", "--experiments", "2", "--devices", "2",
                "--store", str(store)]
        assert main(argv) == 0
        with open(store, "r+b") as fh:
            fh.truncate(store.stat().st_size - 20)
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "engine: 1 executed, 1 resumed" in capsys.readouterr().out
        assert main(["report", str(store), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["experiments"] == 2

    @pytest.mark.parametrize("command", [["report"], ["monitor", "--once"]])
    def test_a_trace_is_not_a_store(self, capsys, tmp_path, command):
        trace = tmp_path / "r.trace.jsonl"
        Tracer().export(trace)
        assert main([command[0], str(trace), *command[1:]]) == 2
        assert "not a store header" in capsys.readouterr().err
