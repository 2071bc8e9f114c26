"""Committed ``BENCH_*.json`` artifacts and the scripts that produce them.

A committed artifact must be a full-size run stamped with the commit it
measured and must still have its producing script; no text in the repo
may point a reader at a ``benchmarks/bench_*.py`` that is gone.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench import run_provenance

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))


class TestProvenance:
    def test_run_provenance_carries_identity_fields(self):
        stamp = run_provenance()
        assert set(stamp) >= {"git_sha", "timestamp", "unix_time", "host",
                              "platform", "python"}
        assert stamp["timestamp"].endswith("+00:00") or \
            stamp["timestamp"].endswith("Z")

    def test_github_sha_env_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "env-sha")
        assert run_provenance()["git_sha"] == "env-sha"


class TestCommittedArtifacts:
    def test_some_artifacts_are_committed(self):
        assert ARTIFACTS, "no BENCH_*.json at the repo root"

    @pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
    def test_full_size_stamped_and_producible(self, path):
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data.get("smoke") is False, (
            f"{path.name} is a --smoke run (or predates the smoke stamp); "
            f"commit a full-size run")
        assert data["provenance"]["git_sha"] not in ("", "unknown")
        name = path.stem[len("BENCH_"):]
        assert (BENCHMARKS / f"bench_{name}.py").is_file(), (
            f"{path.name} has no producing benchmarks/bench_{name}.py")


def test_no_reference_to_a_missing_benchmark_script():
    # Everything that tells a reader or CI which script to run.
    scanned = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *BENCHMARKS.glob("*.py"),
        *(ROOT / ".github" / "workflows").glob("*.yml"),
        ROOT / "README.md",
        ROOT / "EXPERIMENTS.md",
    ]
    dangling = []
    for path in scanned:
        for name in re.findall(r"\bbench_[a-z0-9_]+\.py\b",
                               path.read_text(encoding="utf-8")):
            if not (BENCHMARKS / name).is_file():
                dangling.append(f"{path.relative_to(ROOT)}: {name}")
    assert not dangling, "\n".join(dangling)


class TestWriteArtifact:
    @pytest.fixture
    def write_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import _report
        monkeypatch.setattr(_report, "LINES", [])
        return _report.write_artifact

    def test_smoke_run_cannot_overwrite_the_full_size_artifact(
            self, write_artifact, tmp_path):
        full = write_artifact("demo", {"x": 1.0}, smoke=False)
        smoke = write_artifact("demo", {"x": 2.0}, smoke=True)
        assert full == tmp_path / "BENCH_demo.json"
        assert smoke == tmp_path / ".perfbench_out" / "BENCH_demo.json"
        full_data = json.loads(full.read_text(encoding="utf-8"))
        smoke_data = json.loads(smoke.read_text(encoding="utf-8"))
        assert (full_data["x"], full_data["smoke"]) == (1.0, False)
        assert (smoke_data["x"], smoke_data["smoke"]) == (2.0, True)
        assert full_data["provenance"]["git_sha"]
