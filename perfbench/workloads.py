"""Workload op lists, generated inputs, frozen references and the output checker.

Every op is one `curvehull` command line, run in process through
`curvehull.cli.main(argv)`. Its stdout is checked against an expected
outcome; see `check`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# Reference hull volumes. The saddle (cos t, sin t, cos 2t) bounds exactly pi.
# The baseball value is the Richardson extrapolation V + (V - V_half) / 3 of
# quickhull volumes of 400k and 200k arc-length samples; the same procedure
# gives pi for the saddle to 2e-15.
REFERENCE = {"saddle": math.pi, "baseball": 2.858849314766704}
REL_TOL = 1e-3           # acceptance criterion 01's bound on a volume
MULTIPLICITY_SHARE = 0.95  # acceptance criterion 04: 95 of 100 probes give 4
POLYLINE_GATE_DEFECT = "vertex_count"  # ROADMAP item 4: third differences amplify noise

WORKLOADS = ("formula", "verify", "diagnose")


@dataclass(frozen=True)
class Op:
    """One command line and the outcome its stdout must show."""

    name: str
    argv: tuple
    kind: str  # "volume" | "refusal" | "diagnose" | "converge"
    curve: Optional[str] = None  # key into REFERENCE
    gate: Optional[str] = None  # gate a refusal op must name
    # gate a documented defect of the program refuses this op with; the op
    # then counts as refused, not passed, and not as a checker failure
    defect_gate: Optional[str] = None
    same_stdout_as: Optional[str] = None  # op whose stdout this one must equal


@dataclass(frozen=True)
class Workload:
    name: str
    headline: str  # name of the op whose latency is the headline metric
    ops: tuple


@dataclass
class Outcome:
    status: str  # "pass" | "refused" | "fail"
    detail: str
    rel_errs: tuple = ()  # relative errors of the volumes the op printed
    probes: Optional[dict] = None  # the `probes` block of a diagnose report


def random_rotation(rng) -> np.ndarray:
    """A uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def saddle_points(n: int) -> np.ndarray:
    """n points of the saddle, uniform in arc length, computed without curvehull."""
    t = np.linspace(0.0, 2.0 * np.pi, 64 * n + 1)
    p = np.stack([np.cos(t), np.sin(t), np.cos(2 * t)], axis=-1)
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(p, axis=0), axis=1))])
    tt = np.interp(np.arange(n) * (s[-1] / n), s, t)
    return np.stack([np.cos(tt), np.sin(tt), np.cos(2 * tt)], axis=-1)


def write_polylines(seed: int, workdir: Path, n: int) -> dict:
    """Saddle polyline files, each under its own seeded rigid motion.

    Returns {label: path}. The clean file keeps every digit; the others are
    the realistic perturbations of ROADMAP item 4.
    """
    rng = np.random.default_rng(seed)
    base = saddle_points(n)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for label in ("clean", "round6", "jitter1e-9", "jitter1e-7"):
        pts = base @ random_rotation(rng).T + rng.uniform(-1.0, 1.0, 3)
        fmt = "%.17g"
        if label == "round6":
            fmt = "%.6f"
        elif label.startswith("jitter"):
            pts = pts + rng.normal(scale=float(label[len("jitter"):]), size=pts.shape)
        path = workdir / f"saddle_{label}.txt"
        np.savetxt(path, pts, fmt=fmt)
        files[label] = str(path)
    return files


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The fixed op list of a workload. tiny=True shrinks every n for self-tests."""
    k = 8 if tiny else 1

    def n(value: int) -> str:
        return str(value // k)

    if name == "formula":
        ops = []
        for curve in ("saddle", "baseball"):
            for size in (2000, 4000, 8000):
                ops.append(Op(f"volume {curve} n={n(size)}",
                              ("volume", curve, "--n", n(size)), "volume", curve))
        ops.append(Op(f"volume saddle n={n(8000)} threads=2",
                      ("volume", "saddle", "--n", n(8000), "--threads", "2"), "volume",
                      "saddle", same_stdout_as=f"volume saddle n={n(8000)}"))
        ops.append(Op("volume wobble:k=3", ("volume", "wobble:k=3"), "refusal",
                      gate="vertex_count"))
        ops.append(Op("volume trefoil --force", ("volume", "trefoil", "--force"),
                      "refusal", gate="convexity"))
        files = write_polylines(seed, workdir, int(n(2000)))
        ops.append(Op("volume file clean", ("volume", files["clean"]), "volume", "saddle"))
        ops.append(Op(f"volume file clean n={n(4000)}",
                      ("volume", files["clean"], "--n", n(4000)), "volume", "saddle"))
        for label in ("round6", "jitter1e-9", "jitter1e-7"):
            ops.append(Op(f"volume file {label}", ("volume", files[label]), "volume",
                          "saddle", defect_gate=POLYLINE_GATE_DEFECT))
        return Workload(name, f"volume saddle n={n(8000)}", tuple(ops))
    if name == "verify":
        headline = Op(f"volume saddle n={n(2000)} --verify",
                      ("volume", "saddle", "--n", n(2000), "--verify"), "volume", "saddle")
        # the default ladder is 125,250,500,1000,2000
        argv = ("converge", "baseball") + (("--ns", "125,250,500") if tiny else ())
        return Workload(name, headline.name,
                        (headline, Op("converge baseball", argv, "converge", "baseball")))
    if name == "diagnose":
        # chord clusters need a few hundred samples, so tiny only halves n
        sizes = (500, 250) if tiny else (1000, 500)
        probes = n(100)
        headline = Op(f"diagnose saddle n={sizes[0]}",
                      ("diagnose", "saddle", "--n", str(sizes[0]), "--probes", probes,
                       "--seed", str(seed)), "diagnose")
        return Workload(name, headline.name, (
            headline,
            Op(f"diagnose baseball n={sizes[1]}",
               ("diagnose", "baseball", "--n", str(sizes[1]), "--probes", probes), "diagnose"),
            # the only volume op here, so that rel_err_max is defined on every workload
            Op(f"volume saddle n={sizes[0]}", ("volume", "saddle", "--n", str(sizes[0])),
               "volume", "saddle"),
        ))
    raise KeyError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")


def _rel_err(value: float, curve: str) -> float:
    return abs(value - REFERENCE[curve]) / REFERENCE[curve]


def mask_converge_seconds(stdout: str) -> str:
    """Blank the timing column of `converge` CSV, which differs run to run."""
    lines = stdout.splitlines()
    return "\n".join(lines[:1] + [row.rsplit(",", 1)[0] + ",*" for row in lines[1:]])


def check(op: Op, code: int, stdout: str) -> Outcome:
    """Compare one op's exit code and stdout with its expected outcome."""
    try:
        return _check(op, code, stdout)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return Outcome("fail", f"exit {code}, unreadable stdout ({exc!r}): {stdout[:200]!r}")


def _check(op: Op, code: int, stdout: str) -> Outcome:
    if op.kind == "converge":
        if code != 0:
            return Outcome("fail", f"exit {code}, expected 0")
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        gaps = [float(r[3]) for r in rows]
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            return Outcome("fail", f"gaps do not strictly decrease: {gaps}")
        errs = (_rel_err(float(rows[-1][1]), op.curve),
                *(_rel_err(float(r[2]), op.curve) for r in rows))
        if max(errs) > REL_TOL:
            return Outcome("fail", f"largest-n row off by {max(errs):.3g} (> {REL_TOL:g})")
        return Outcome("pass", f"gaps {gaps}", errs)

    report = json.loads(stdout)
    if op.kind == "refusal" or (code == 1 and op.defect_gate):
        gate = report.get("error", {}).get("gate")
        expected = op.gate or op.defect_gate
        if code != 1 or gate != expected:
            return Outcome("fail", f"exit {code} gate {gate!r}, expected exit 1 gate {expected!r}")
        if op.defect_gate:
            return Outcome("refused", f"refused by {gate}: {report['error']['message']}")
        return Outcome("pass", f"refused by {gate}")
    if code != 0:
        return Outcome("fail", f"exit {code}, expected 0")

    if op.kind == "volume":
        errs = [_rel_err(report["formula_volume"]["volume"], op.curve)]
        if report.get("oracle_volume") is not None:
            errs.append(_rel_err(report["oracle_volume"], op.curve))
        if max(errs) > REL_TOL:
            return Outcome("fail", f"volume off by {max(errs):.3g} (> {REL_TOL:g})")
        return Outcome("pass", f"volume {report['formula_volume']['volume']!r}", tuple(errs))

    hist = report["multiplicity_histogram"]
    requested = report["probes"]["requested"]
    if set(hist) - {"4"} or hist.get("4", 0) < MULTIPLICITY_SHARE * requested:
        return Outcome("fail", f"multiplicity histogram {hist} for {requested} probes")
    return Outcome("pass", f"histogram {hist}", probes=report["probes"])
