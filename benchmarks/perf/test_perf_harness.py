"""Checks on the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf

One ``--smoke`` run and one ``--smoke --trace`` run are shared by the
module (about 40 s together); the rest work on their files.
"""

from __future__ import annotations

import ast
import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import probes as probes_module  # noqa: E402
from probes import Probes, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, out: Path) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out / "result.json", encoding="utf-8") as handle:
        return done, json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run("--smoke", out=tmp_path_factory.mktemp("smoke"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    done, result = _run("--smoke", "--trace", out=out)
    return done, result, out


# ----------------------------------------------------------------------
# BENCHMARK.json and the result schema
# ----------------------------------------------------------------------
def test_benchmark_json_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _check_closing_line(done, spec, listed):
    closing = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(closing) == {"correct", "attempted", "failed", "metrics"}
    assert closing["correct"] is True
    assert closing["attempted"] >= 1 and closing["failed"] == 0
    units = {m["name"]: m["unit"] for m in listed}
    for workload in (w["name"] for w in spec["workloads"]):
        for name, unit in units.items():
            entry = closing["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
    # Every metric is printed by name with its unit.
    for name, unit in units.items():
        assert re.search(rf"{re.escape(name)}\s+\S+ {re.escape(unit)} ",
                         done.stdout)


def test_smoke_result_matches_benchmark_json(smoke, spec):
    done, result = smoke
    _check_closing_line(done, spec, spec["end_to_end"])
    assert {"git_sha", "timestamp", "host", "python"} <= set(result["provenance"])
    assert result["host"]["usable_cores"] >= 1
    assert result["host"]["blas_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    for workload, record in result["workloads"].items():
        for metric in spec["end_to_end"]:
            assert record["metrics"][metric["name"]] > 0, (workload, metric)
        assert record["state_digest"] and record["outcome_counts"]
        assert record["numpy"] and record["sizes"] and record["host"]
        assert record["seed"] == result["seed"]
    assert result["workloads"]["serve_clean"]["serving"]["faults_fired"] == 0
    faulty = result["workloads"]["serve_faulty"]["serving"]
    assert faulty["faults_fired"] > 0 and faulty["shadow_execs"] > 0
    batched = result["workloads"]["campaign_batched"]
    assert batched["oracle_checked"] >= 1 and batched["cross_checked"] >= 1


def test_traced_result_lists_every_layer_metric(traced, spec):
    done, result, _out = traced
    _check_closing_line(done, spec, spec["per_layer"])
    for workload, record in result["workloads"].items():
        assert record["probes_missing"] == [], workload
        assert {m["name"] for m in spec["per_layer"]} <= set(record["metrics"])
        assert all(v is not None for v in record["metrics"].values())
    solo = result["workloads"]["campaign_inprocess"]["metrics"]
    assert solo["nn.conv.calls"] > 0 and solo["nn.backward_s"] > 0
    assert solo["backend.batched.compute_s"] == 0
    assert result["workloads"]["campaign_batched"]["metrics"][
        "backend.batched.lanes_per_call"] > 0
    assert result["workloads"]["serve_faulty"]["metrics"]["serving.shadow_s"] > 0
    assert result["workloads"]["serve_clean"]["metrics"]["serving.shadow_s"] == 0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_tree_is_well_formed(traced, spec):
    _done, _result, out = traced
    for workload in (w["name"] for w in spec["workloads"]):
        with open(out / f"trace_{workload}.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans, workload
        for _name, start, end, parent, _key, thread in spans:
            assert end >= start
            if parent >= 0:
                _pn, p_start, p_end, _pp, _pk, p_thread = spans[parent]
                assert p_thread == thread
                assert p_start <= start and end <= p_end + 1e-6
        own = self_times(spans)
        assert min(own) >= -1e-5
        wall = max(s[2] for s in spans) - min(s[1] for s in spans)
        for thread in {s[5] for s in spans}:
            busy = sum(t for s, t in zip(spans, own) if s[5] == thread
                       and trace["names"][s[0]] != "serving.batcher.submit")
            assert busy <= wall + 1e-6


def _probe_targets():
    from repro.core.faults import campaign, hardware
    from repro.nn.conv import Conv2D
    from repro.optim.adam import Adam
    from repro.serving.batcher import DynamicBatcher
    from repro.training.checkpoints import Checkpoint

    return [(Conv2D, "forward"), (Adam, "step"), (Checkpoint, "capture"),
            (Checkpoint, "restore"), (DynamicBatcher, "submit"),
            (hardware, "sample_fault"), (campaign, "sample_fault")]


def test_wrappers_are_fully_removed():
    targets = _probe_targets()
    before = [vars(owner).get(attr) for owner, attr in targets]
    assert all(fn is not None for fn in before)
    installed = Probes()
    installed.install()
    try:
        assert installed.missing == []
        during = [vars(owner).get(attr) for owner, attr in targets]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        installed.remove()
    assert [vars(owner).get(attr) for owner, attr in targets] == before
    # Nothing of ours is left anywhere in the program.
    import repro.nn.module

    for cls in [repro.nn.module.Module] + probes_module._all_subclasses(
            repro.nn.module.Module):
        for attr in ("forward", "backward"):
            fn = vars(cls).get(attr)
            assert fn is None or not hasattr(fn, "__wrapped__"), (cls, attr)


def test_a_vanished_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(probes_module, "PROBE_TABLE", (
        ("repro.backend.no_such_module.Thing", ("step",), "gone.step", {}),
        ("repro.nn.conv.Conv2D", ("no_such_method",), "gone.method", {}),
        ("repro.state.no_such_function", None, "gone.function", {}),
        ("repro.nn.conv.Conv2D", ("forward",), "nn.conv.forward", {}),
    ))
    installed = Probes()
    installed.install()
    installed.remove()
    assert installed.missing == [
        "repro.backend.no_such_module.Thing",
        "repro.nn.conv.Conv2D.no_such_method",
        "repro.state.no_such_function"]
    assert installed.installed == {"nn.conv.forward"}


# ----------------------------------------------------------------------
# Imports: only the stable entry points
# ----------------------------------------------------------------------
FORBIDDEN = ("repro.backend.batched_ops", "repro.backend.multiprocess",
             "repro.serve", "repro.serving.server.InferenceServer",
             "repro.serving.InferenceServer")
ALLOWED_IMPORTS = {
    "repro.workloads.build_workload", "repro.core.faults.Campaign",
    "repro.core.faults.InferenceCampaign", "repro.serving.InferenceSession",
    "repro.serving.ServingEngine", "repro.serving.ShedError",
    "repro.engine.ResultStore", "repro.bench.provenance.run_provenance",
}


def _references(path: Path) -> tuple[set[str], set[str]]:
    """(imported dotted names, dotted string constants) of one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"repro(\.\w+)+", node.value):
            strings.add(node.value)
    return imports, strings


def _is_forbidden(name: str) -> bool:
    return any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)


def test_benchmark_touches_only_stable_entry_points():
    files = sorted(HERE.glob("*.py"))
    assert len(files) >= 6
    for path in files:
        imports, strings = _references(path)
        if path.name == Path(__file__).name:
            strings -= set(FORBIDDEN)  # this file has to name them
        for name in imports | strings:
            assert not _is_forbidden(name), f"{path.name} references {name}"
        if path.name in ("run.py", "child.py", "workloads.py", "hostclock.py",
                         "compare.py"):
            # The untraced run: nothing from the program beyond the
            # entry points the issue names.
            program = {n for n in imports if n.split(".")[0] == "repro"}
            assert program <= ALLOWED_IMPORTS, (path.name, program)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _compare(base: Path, new: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(base), str(new), *flags],
        capture_output=True, text=True, timeout=60)


def test_compare_flags_slowdown_and_label_mismatch(smoke, spec, tmp_path):
    _done, result = smoke
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "throughput_per_s")

    def write(name: str, record: dict) -> Path:
        path = tmp_path / name / "result.json"
        path.parent.mkdir()
        path.write_text(json.dumps(record), encoding="utf-8")
        return path

    base = write("base", result)
    same = _compare(base, base, "--self-check")
    assert same.returncode == 0, same.stdout

    slow = copy.deepcopy(result)
    slow["workloads"]["campaign_inference"]["metrics"]["throughput_per_s"] *= \
        1.0 - bound - 0.05
    done = _compare(base, write("slow", slow))
    assert done.returncode == 1
    assert re.search(r"campaign_inference\s+throughput_per_s.*worse", done.stdout)
    assert "campaign_inprocess throughput" not in done.stdout.split("REGRESSION")[1]

    wrong = copy.deepcopy(result)
    served = wrong["workloads"]["serve_faulty"]
    served["failed"] += 3
    served["outcome_counts"] = {"golden": 1, "mismatch": 3}
    done = _compare(base, write("wrong", wrong))
    assert done.returncode == 1
    assert "serve_faulty: failed share rose" in done.stdout
    assert "serve_faulty seed" in done.stdout and "differ" in done.stdout
