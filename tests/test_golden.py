"""Every CLI report pinned byte for byte: argv, exit code and stdout.

The inputs are written by write_inputs under fixed basenames, and each
command runs in process with the input directory as its working directory,
so no report holds a temporary path. Stdout is stored split at its
newlines, so that a diff of the golden file shows the lines that moved, and
an OBJ file is pinned by its sha256.
After a change that is meant to alter output, rewrite the golden file with
`PYTHONPATH=src python tests/regenerate_golden.py` and list the commands
whose stdout moved.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import lifted_circle_points

from curvehull.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    # the README's command block
    ("volume", "saddle", "--n", "2000", "--verify"),
    ("volume", "wobble:k=3"),
    ("volume", "wobble:k=3", "--force"),
    ("area", "ellipse:a=2,b=1", "--n", "10000"),
    ("converge", "saddle", "--ns", "125,250,500,1000,2000"),
    ("converge", "trefoil", "--force"),
    ("diagnose", "saddle", "--n", "500", "--probes", "100", "--seed", "42"),
    ("export-mesh", "baseball", "baseball.obj", "--n", "400"),
    ("gallery-list",),
    ("gallery-list", "--json"),
    # gallery curves off the README, and one refusal per gate
    ("volume", "saddle", "--n", "50"),
    ("volume", "baseball", "--n", "300"),
    ("volume", "baseball:b=0.3,c=0.4", "--n", "200"),
    ("volume", "ellipse", "--n", "100"),
    ("volume", "ellipse:a=0,b=0"),
    ("volume", "trefoil", "--n", "300", "--force"),
    ("volume", "trefoil", "--n", "300", "--force", "--skip-convexity"),
    ("volume", "saddle", "--n", "300", "--skip-convexity"),
    ("volume", "wobble:k=5", "--n", "12"),
    ("area", "saddle", "--n", "200"),
    ("converge", "baseball", "--ns", "125,250", "--json"),
    ("diagnose", "wobble:k=3", "--n", "400", "--probes", "20"),
    ("diagnose", "trefoil", "--n", "300", "--probes", "10"),
    ("volume", "nosuchcurve"),
    # polyline files
    ("volume", "saddle400.txt"),
    ("volume", "saddle400.txt", "--n", "600"),
    ("volume", "saddle400.txt", "--verify", "--skip-convexity"),
    ("diagnose", "saddle400.txt", "--probes", "10"),
    ("converge", "saddle400.txt", "--ns", "200,400"),
    ("volume", "saddle_round6.txt"),
    ("diagnose", "saddle_round6.txt", "--probes", "10"),
    ("volume", "saddle6.txt"),
    ("diagnose", "saddle6.txt", "--probes", "10"),
    ("volume", "tetra.txt"),
    ("volume", "wobble3.txt"),
    ("volume", "square.txt"),
    ("area", "square.txt"),
    ("export-mesh", "cube.txt", "cube.obj"),
    ("volume", "circle.txt", "--force", "--verify"),
    ("diagnose", "circle.txt", "--probes", "5"),
    ("volume", "far3.txt", "--force"),
    ("area", "far3.txt"),
    ("volume", "far.txt", "--force"),
]


def _saddle(n):
    """The saddle (cos t, sin t, cos 2t) at n uniform parameter values."""
    t = np.arange(n) * (2 * np.pi / n)
    return np.stack([np.cos(t), np.sin(t), np.cos(2 * t)], axis=1)


def write_inputs(directory: Path) -> None:
    """The polyline files COMMANDS read, built from closed formulas alone."""
    a, b = 0.7, 1.9  # a fixed rotation, about z by a and then about x by b
    rz = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, np.cos(b), -np.sin(b)], [0, np.sin(b), np.cos(b)]])
    far = np.array([0.3, -0.97, 0.54])
    t = np.arange(500) * (2 * np.pi / 500)
    wobble3 = np.stack([np.cos(t), np.sin(t), np.sin(3 * t)], axis=1)
    files = {
        "saddle400.txt": (_saddle(400), "%.17g"),
        # perfbench's realistic file: rotated, shifted and written to 6 decimals
        "saddle_round6.txt": (_saddle(2000) @ (rx @ rz).T + [0.41, -0.63, 0.27], "%.6f"),
        "saddle6.txt": (_saddle(6), "%.17g"),
        "tetra.txt": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "%.17g"),
        "wobble3.txt": (wobble3, "%.17g"),
        "square.txt": ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "%.17g"),
        "cube.txt": ([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], "%.17g"),
        "circle.txt": (lifted_circle_points(), "%.17g"),
        "far3.txt": (_saddle(3) * 1e-6 + 1e3 * far, "%.17g"),
        "far.txt": (_saddle(300) * 1e-3 + 5e5 * far, "%.6f"),
    }
    for name, (points, fmt) in files.items():
        np.savetxt(directory / name, np.asarray(points, dtype=float), fmt=fmt)


def run(argv) -> dict:
    """One command's record: argv, exit code, stdout and any OBJ's sha256."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    record = {"argv": list(argv), "exit": code, "stdout": out.getvalue().split("\n")}
    obj = [arg for arg in argv if arg.endswith(".obj")]
    if obj and os.path.exists(obj[0]):
        record["obj_sha256"] = hashlib.sha256(Path(obj[0]).read_bytes()).hexdigest()
        os.remove(obj[0])
    return record


def regenerate() -> None:
    """Rewrite GOLDEN from the current tree."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            records = [run(argv) for argv in COMMANDS]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_exactly_the_commands(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_report_matches_golden(argv, inputs, golden, monkeypatch):
    monkeypatch.chdir(inputs)
    got, want = run(argv), golden[argv]

    def lines(record):
        return [f"exit {record['exit']}", f"obj {record.get('obj_sha256')}", *record["stdout"]]

    diff = difflib.unified_diff(lines(want), lines(got), "golden", "now", lineterm="")
    assert got == want, "\n".join(diff)
