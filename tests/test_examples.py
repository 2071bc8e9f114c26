"""Smoke tests for the example scripts.

Every script must compile.  The quick ones (a few seconds each on two
cores) run end to end here: exit 0 and their result line.
``fault_campaign.py`` runs in CI, and ``workload_zoo.py`` (about 16 s:
it trains every workload) runs only in the slow lane.
"""

import py_compile
import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))

#: Example -> a regex its stdout must match (its result line).
RESULT_LINES = {
    "quickstart.py": r"(?m)^outcome: \w+ \(unexpected: (True|False)\)$",
    "mitigation_demo.py": r"(?m)^  detections at \[\d+(, \d+)*\], "
                          r"re-executed from \[\d+(, \d+)*\]$",
    "multi_fault_study.py": r"(?m)^faults fired: \d+/3$",
    "workload_zoo.py": r"(?m)^resnet\s+\d+",
}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "mitigation_demo.py", "fault_campaign.py",
            "rtl_validation.py", "workload_zoo.py",
            "multi_fault_study.py"} <= names


def test_rtl_validation_example_runs():
    """The fastest example (~5s): run it for real and check the verdict."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / "rtl_validation.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "match rate on non-masked faults: 100.0%" in result.stdout


@pytest.mark.parametrize("name", [
    "quickstart.py", "mitigation_demo.py", "multi_fault_study.py",
    pytest.param("workload_zoo.py", marks=pytest.mark.slow),
])
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / name)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert re.search(RESULT_LINES[name], result.stdout), result.stdout
