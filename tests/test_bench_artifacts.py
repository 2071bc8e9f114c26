"""Committed ``BENCH_*.json`` artifacts and the scripts that produce them.

A committed artifact must be a full-size run stamped with the commit it
measured and must still have its producing script; no text in the repo
may point a reader at a ``benchmarks/bench_*.py`` that is gone.  Every
paper claim is decided by one rule (``_report.verdict``), its record is
in its bench's artifact, and EXPERIMENTS.md's Status words agree with
those records.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench import run_provenance
from repro.core.analysis import difference_interval

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))


def _status_sections() -> list[tuple[str, list[str], str]]:
    """(heading, bench names, Status word) of every EXPERIMENTS.md
    section headed by a ``bench_*.py`` whose body has a Status line."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    heads = list(re.finditer(r"^## .*$", text, re.M))
    sections = []
    for head, end in zip(heads, [h.start() for h in heads[1:]] + [len(text)]):
        benches = re.findall(r"`bench_([a-z0-9_]+)\.py`", head.group())
        status = re.search(r"\*\*Status: ([A-Za-z]+)", text[head.end():end])
        if benches and status:
            sections.append((head.group(), benches, status.group(1)))
    return sections


@pytest.fixture
def report(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import _report
    monkeypatch.setattr(_report, "LINES", [])
    return _report


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

    @pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
    def test_claims_carry_their_verdict(self, path, report):
        claims = json.loads(path.read_text(encoding="utf-8")).get("claims")
        assert claims, f"{path.name} records no claim"
        for claim in claims:
            assert set(claim) >= {"claim", "paper", "band", "n", "low",
                                  "high", "verdict"}, claim
            assert claim["verdict"] in report.VERDICTS


SECTIONS = _status_sections()


@pytest.mark.parametrize("heading, benches, status", SECTIONS,
                         ids=["+".join(benches) for _, benches, _ in SECTIONS])
def test_status_word_is_the_worst_committed_verdict(heading, benches, status,
                                                   report):
    verdicts = []
    for name in benches:
        path = ROOT / f"BENCH_{name}.json"
        assert path.is_file(), f"{heading!r} has no committed {path.name}"
        data = json.loads(path.read_text(encoding="utf-8"))
        verdicts += [claim["verdict"] for claim in data["claims"]]
    worst = min(verdicts, key=report.VERDICTS.index)
    assert status == worst, (
        f"{heading!r} says Status: {status}, its artifacts' worst claim "
        f"reads {worst}")


def test_every_paper_section_has_a_status_checked():
    assert len(SECTIONS) >= 16


class TestVerdict:
    def test_newcombe_published_difference_interval(self):
        # Newcombe (1998), Table II example: 56/70 - 48/80 at 95 %.
        low, high = difference_interval(56, 70, 48, 80, confidence=0.95)
        assert (round(low, 4), round(high, 4)) == (0.0524, 0.3339)

    @pytest.mark.parametrize("low, high, band, word", [
        (0.2, 0.3, (0.1, 0.4), "OK"),          # inside
        (0.05, 0.3, (0.1, 0.4), "PARTIAL"),    # straddles the low edge
        (0.3, 0.5, (0.1, 0.4), "PARTIAL"),     # straddles the high edge
        (0.5, 0.6, (0.1, 0.4), "DIFF"),        # disjoint, above
        (0.0, 0.05, (0.1, 0.4), "DIFF"),       # disjoint, below
        (0.1, 0.9, (0, None), "OK"),           # one-sided band
        (-0.1, 0.9, (0, None), "PARTIAL"),
        (0.13, 0.87, (None, 0.337), "PARTIAL"),
        (0.5, 0.9, (None, 0.337), "DIFF"),
        (1.0, 1.0, (1, 1), "OK"),              # zero-width band
        (0.5, 0.5, (1, 1), "DIFF"),
    ])
    def test_words(self, report, low, high, band, word):
        assert report.verdict(low, high, band) == word

    def test_zero_width_band_judges_the_point_keeps_the_interval(self, report):
        every = report.paper_vs_measured("c", "p", "m", band=(1, 1),
                                         counts=(6, 6))
        assert (every["verdict"], every["n"], every["high"]) == ("OK", 6, 1.0)
        assert every["low"] < 1.0
        missed = report.paper_vs_measured("c", "p", "m", band=(1, 1),
                                          counts=(5, 6))
        assert missed["verdict"] == "DIFF"

    def test_difference_and_value_claims(self, report):
        diff = report.paper_vs_measured("c", "p", "m", band=(0, None),
                                        counts=((56, 70), (48, 80)))
        assert diff["n"] == [70, 80]
        assert diff["estimate"] == pytest.approx(0.2)
        assert diff["low"] <= diff["estimate"] <= diff["high"]
        value = report.paper_vs_measured("c", "p", "m", band=(None, 1),
                                         value=0.25)
        assert (value["n"], value["low"], value["high"], value["verdict"]) \
            == (None, 0.25, 0.25, "OK")
        with pytest.raises(ValueError):
            report.paper_vs_measured("c", "p", "m", band=(0, 1))


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
    def write_artifact(self, report, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_ARTIFACT_DIR", str(tmp_path))
        return report.write_artifact

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
