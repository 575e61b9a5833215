"""The package's public names: each one exported once, and each importable,
and each README signature of one true to its parameters. Also that the CI
workflow runs ROADMAP.md's tier-1 verify command as written."""

import collections
import inspect
import re
from pathlib import Path

import pytest

import curvehull

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_public_name_is_exported_once_and_resolves():
    repeated = [k for k, c in collections.Counter(curvehull.__all__).items() if c > 1]
    assert repeated == []
    namespace = {}
    exec("from curvehull import *", namespace)  # raises on a name that does not resolve
    assert set(curvehull.__all__) <= set(namespace)


def test_readme_signatures_list_the_exports_parameters():
    # every inline `name(a, b)` outside fenced code that names an export; a
    # span may wrap onto the next line
    prose = re.sub(r"(?ms)^```.*?^```", "", README.read_text())
    calls = [re.fullmatch(r"(\w+)\((.*)\)", " ".join(span.split()))
             for span in re.findall(r"`([^`]+)`", prose)]
    written = [(m[1], [p.strip() for p in m[2].split(",") if p.strip()])
               for m in calls if m and m[1] in curvehull.__all__]
    assert written
    wrong = [(name, params) for name, params in written
             if params != list(inspect.signature(getattr(curvehull, name)).parameters)]
    assert wrong == []


def test_ci_workflow_runs_the_tier1_verify_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())[1]
    runs = [step.get("run") for job in workflow["jobs"].values() for step in job["steps"]]
    assert command in runs
