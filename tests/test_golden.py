"""Every CLI report pinned byte for byte: argv, exit code and stdout.

The inputs are written by write_inputs under fixed basenames, and each
command runs in process with the input directory as its working directory,
so no report holds a temporary path. Stdout is stored split at its
newlines, so that a diff of the golden file shows the lines that moved, and
an OBJ file is pinned by its sha256.
After a change that is meant to alter output, rewrite the golden file with
`PYTHONPATH=src python tests/regenerate_golden.py`, which prints the argv of
every command whose record it added, removed or changed, and under each
changed one the paths of the record's fields it removed, added or changed.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import re
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from conftest import buried_loop_points, lifted_circle_points

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
    ("volume", "wobble:k=5", "--n", "12"),
    ("area", "saddle", "--n", "200"),
    ("converge", "baseball", "--ns", "125,250", "--json"),
    ("diagnose", "wobble:k=3", "--n", "400", "--probes", "20"),
    ("diagnose", "trefoil", "--n", "300", "--probes", "10"),
    ("volume", "nosuchcurve"),
    # polyline files
    ("volume", "saddle400.txt"),
    ("volume", "saddle400.txt", "--n", "600"),
    ("diagnose", "saddle400.txt", "--probes", "10"),
    ("diagnose", "saddle400.txt", "--probes", "10", "--seed", "7"),
    ("converge", "saddle400.txt", "--ns", "200,400"),
    ("volume", "saddle_round6.txt"),
    ("diagnose", "saddle_round6.txt", "--probes", "10"),
    ("volume", "saddle6.txt"),
    ("diagnose", "saddle6.txt", "--probes", "10"),
    ("volume", "tetra.txt"),
    ("volume", "wobble3.txt"),
    # four sign changes but buried points: --force skips only the vertex count
    ("volume", "nonconvex.txt", "--force"),
    ("volume", "square.txt"),
    ("area", "square.txt"),
    # a planar ellipse turned out of every coordinate plane: a nonzero deviation
    ("area", "tilted.txt"),
    ("volume", "tilted.txt"),
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
    s = np.arange(100) * (2 * np.pi / 100)
    ellipse = np.stack([2 * np.cos(s), np.sin(s), np.zeros(100)], axis=1)
    t = np.arange(500) * (2 * np.pi / 500)
    wobble3 = np.stack([np.cos(t), np.sin(t), np.sin(3 * t)], axis=1)
    files = {
        "saddle400.txt": (_saddle(400), "%.17g"),
        # perfbench's realistic file: rotated, shifted and written to 6 decimals
        "saddle_round6.txt": (_saddle(2000) @ (rx @ rz).T + [0.41, -0.63, 0.27], "%.6f"),
        "saddle6.txt": (_saddle(6), "%.17g"),
        "tetra.txt": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "%.17g"),
        "wobble3.txt": (wobble3, "%.17g"),
        "nonconvex.txt": (buried_loop_points(), "%.17g"),
        "square.txt": ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "%.17g"),
        "tilted.txt": (ellipse @ (rx @ rz).T + [0.41, -0.63, 0.27], "%.17g"),
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


def nodes(value, path=""):
    """(path, value) for a JSON value and for everything inside it, the value
    itself first: keys joined by '.', list items as [i]."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, f"{path}[{i}]")


def report(record):
    """A record's stdout read as JSON, or None when it is not JSON."""
    try:
        return json.loads("\n".join(record["stdout"]))
    except ValueError:
        return None


def fields(record) -> dict:
    """A record's leaves as JSON text by path: exit, obj_sha256, and the
    report's own paths, or stdout[i] for each line of stdout that is not JSON.
    An empty list or object is a leaf."""
    out = report(record)
    whole = {"exit": record["exit"], "obj_sha256": record.get("obj_sha256"),
             **({"stdout": record["stdout"]} if out is None else out)}
    return {
        path: json.dumps(value)
        for path, value in nodes(whole)
        if not (isinstance(value, (dict, list)) and value)
    }


def moved(old: list, new: list) -> list:
    """One line per command whose record new adds, removes or changes against
    old, each changed one followed by the paths of fields (see fields) that
    it removed, added or changed in value."""
    was, now = ({tuple(r["argv"]): r for r in records} for records in (old, new))
    lines = []
    for argv in dict.fromkeys([*was, *now]):
        state = "removed" if argv not in now else "added" if argv not in was else "changed"
        if was.get(argv) == now.get(argv):
            continue
        lines.append(f"{state}: {' '.join(argv)}")
        if state == "changed":
            before, after = fields(was[argv]), fields(now[argv])
            for kind, paths in (
                ("removed", [p for p in before if p not in after]),
                ("added", [p for p in after if p not in before]),
                ("changed", [p for p in before if p in after and before[p] != after[p]]),
            ):
                if paths:
                    lines.append(f"  {kind}: {', '.join(paths)}")
    return lines


def regenerate() -> None:
    """Rewrite GOLDEN from the current tree, and print the argv of every
    command whose record it adds, removes or changes."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            records = [run(argv) for argv in COMMANDS]
        finally:
            os.chdir(cwd)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    print("\n".join(moved(old, records)))
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


def test_moved_names_each_added_removed_and_changed_command():
    def record(argv, code, stdout):
        return {"argv": argv, "exit": code, "stdout": stdout.split("\n")}

    old = [
        record(["a"], 0, ""),
        record(["b"], 0, '{"k": 1, "gone": {"x": [1, 2]}, "same": true}'),
        record(["c"], 0, "csv,head\n1,2"),
        record(["e"], 0, "text"),
    ]
    new = [
        record(["b"], 1, '{"k": 2, "new": [], "same": true}'),
        record(["c"], 0, "csv,head\n1,3\n4,5"),
        record(["d", "-x"], 0, ""),
        record(["e"], 0, "text"),
    ]
    assert moved(old, new) == [
        "removed: a",
        "changed: b",
        "  removed: gone.x[0], gone.x[1]",
        "  added: new",
        "  changed: exit, k",
        "changed: c",
        "  added: stdout[2]",
        "  changed: stdout[1]",
        "added: d -x",
    ]
    # true and 1 are equal in Python but not in JSON
    assert moved([record(["f"], 0, '{"k": true}')], [record(["f"], 0, '{"k": 1}')]) == [
        "changed: f",
        "  changed: k",
    ]


# Report fields that may print one value in every golden record of a command,
# each with its reason; a path stands for itself and every path below it.
ONE_VALUE_ALLOWED = {
    ("*", "schema"): "the version of the report format",
    ("*", "command"): "the command's name",
    ("*", "error.gate"): "the gate the refusals are grouped by",
    ("volume", "error.message"): "the planarity gate's sentence holds no number",
    **{
        ("diagnose", f"probes.{counter}"): "always 0, kept because perfbench/run.py reads it"
        for counter in ("rejected_outside", "rejected_near_boundary", "chord_failures")
    },
    ("volume", "vertex_report"): "null under --force and a count of 4 otherwise, printed "
    "in the shape it has in diagnose, where it varies",
}


def test_every_field_a_command_prints_twice_takes_two_values(golden):
    # a field printed with one value wherever its command (or gate, for a
    # refusal) prints it states a constant of the program, not a fact about
    # the input; list items share one path, so patch_sample_ids[] is one field
    values = defaultdict(lambda: defaultdict(set))  # group -> path -> values
    records = defaultdict(lambda: defaultdict(int))  # group -> path -> records
    for record in golden.values():
        out = report(record)
        if out is None:
            continue
        group = (out["command"], out.get("error", {}).get("gate"))
        paths = defaultdict(set)
        for path, value in nodes(out):
            paths[re.sub(r"\[\d+\]", "[]", path)].add(json.dumps(value, sort_keys=True))
        for path, seen in paths.items():
            values[group][path] |= seen
            records[group][path] += 1

    def allowed(command, path):
        return any(
            who in ("*", command) and (path == key or path.startswith((key + ".", key + "[")))
            for who, key in ONE_VALUE_ALLOWED
        )

    constant = [
        f"{command} ({gate or 'success'}): {path} = {''.join(values[command, gate][path])}"
        for (command, gate), counts in records.items()
        for path, count in counts.items()
        if path and count >= 2 and len(values[command, gate][path]) < 2
        and not allowed(command, path)
    ]
    assert not constant, "\n".join(constant)
