"""The CI workflow runs the tier-1 command that ROADMAP.md states."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _tier1_command():
    return re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$",
                     (ROOT / "ROADMAP.md").read_text(), re.MULTILINE).group(1)


def test_tier1_workflow_runs_the_roadmap_command():
    """Read as plain text, so the check needs nothing the workflow does not
    install: the run lines, unquoted, are the install and the tier-1 line."""
    text = WORKFLOW.read_text()
    runs = [run.strip().strip("'")
            for run in re.findall(r"^\s+run: (.+)$", text, re.MULTILINE)]
    assert runs == ["pip install -e . pytest hypothesis", _tier1_command()]
    assert re.findall(r"python-version: (.+)", text) == ['"3.11"']


def test_tier1_workflow_parses_as_yaml():
    yaml = pytest.importorskip("yaml")  # not installed by the workflow
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    assert [step["run"] for step in steps if "run" in step] == [
        "pip install -e . pytest hypothesis", _tier1_command()]
    assert [step["with"]["python-version"] for step in steps
            if step.get("uses", "").startswith("actions/setup-python")] \
        == ["3.11"]
