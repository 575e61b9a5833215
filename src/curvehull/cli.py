"""Command-line front end.

Subcommands: volume, area, converge, diagnose, export-mesh, gallery-list.
Reports go to stdout as JSON (CSV for converge); timings go to stderr so
that stdout is byte-identical across repeated runs and thread counts.
Exit codes: 0 success, 1 validity gate failed, 2 I/O or parse error.
Every hull comes from is_convex_curve, which runs the planarity gate first.

Curves are given either as gallery specs ("saddle", "wobble:k=5") or as
paths to polyline files: plain text, one "x y z" triple per line, '#'
comments, loop closed implicitly. A gallery curve is worked on at --n
arc-length samples; a file always as it is, its own points, so --n and --ns
are ignored for it with a note on stderr, and converge's rows are its every
k-th point. diagnose draws its probes inside the hull,
every one evaluated, from numpy's default_rng (PCG64) seeded by --seed, so
diagnostics are reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import gallery, hull, quadrature
from .curves import (
    COINCIDENT_RTOL,
    SampledCurve,
    is_convex_curve,
    sample_uniform,
)
from .errors import GateError
from .quadrature import MIN_STRIDE_POINTS, discrete_vertex_report, hull_volume

ORACLE_SAMPLES = 10_000    # --verify and converge oracle size; even, as it also hulls every other
DEFAULT_NS = "125,250,500,1000,2000"  # converge's sample counts for a gallery curve
FILE_STRIDES = (16, 8, 4, 2, 1)  # converge's rows for a file: every k-th of its points
_THREADS_HELP = "accepted for compatibility; changes neither the result nor the work"


def _emit(command: str, fields: dict) -> None:
    """Print one report: fields plus the schema version and command name."""
    report = {"schema": 6, "command": command, **fields}
    print(json.dumps(report, indent=2, sort_keys=True))


class _PhaseTimer(dict):
    """Seconds per named phase; `with phase("gates"): ...` times one phase,
    and a phase timed again adds to its total."""

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        yield
        self[name] = self.get(name, 0.0) + time.perf_counter() - t0


def _at_least(low: int, what: str):
    """An argparse type: an integer of at least low, called `what` when refused."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= {low}, got {text!r}")
        return value

    return parse


def load_polyline(path) -> SampledCurve:
    """Read a closed loop from a text file of "x y z" lines."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected three numbers, got {raw!r}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite coordinate in {text!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no points found")
    pts = np.asarray(rows)
    scale = float(np.max(np.abs(pts))) or 1.0
    if len(pts) > 1 and np.linalg.norm(pts[-1] - pts[0]) <= COINCIDENT_RTOL * scale:
        pts = pts[:-1]  # tolerate an explicitly repeated first point
    return SampledCurve.from_points(pts)


def _note_ignored(flag: str) -> None:
    """Say on stderr that a sample-count flag given with a polyline file
    changes nothing: a file is always taken as it is."""
    print(f"# note: {flag} is ignored for a polyline file, taken as it is", file=sys.stderr)


class _ResolvedCurve:
    """A curve argument resolved to a gallery curve or a polyline file.

    Exactly one of curve (the gallery's AnalyticCurve) and file (the file's
    own points) is set, and name is the gallery name or the file's basename.
    A file's loop is always its own points; a gallery curve's is its
    arc-length samples.
    """

    def __init__(self, spec: str):
        self.curve = self.file = None
        looks_like_path = os.sep in spec or spec.endswith((".txt", ".xyz", ".poly"))
        if os.path.exists(spec) or looks_like_path:
            self.file = load_polyline(spec)
            self.name = os.path.basename(spec)
        elif spec.partition(":")[0].strip() in gallery.names():
            entry = gallery.get(spec)  # its KeyError names a bad parameter
            self.curve, self.name = entry.curve, entry.name
        else:
            raise KeyError(
                f"{spec!r} is neither an existing polyline file nor a gallery "
                f"curve (available: {', '.join(gallery.names())})"
            )

    def sample(self, n) -> SampledCurve:
        """The loop to work on: a file's own points, or n arc-length samples
        of a gallery curve (1000 when n is None)."""
        if self.file is None:
            return sample_uniform(self.curve, 1000 if n is None else n)
        if n is not None:
            _note_ignored("--n")
        return self.file

    def oracle_volume(self, mesh) -> float:
        """Reference hull volume. A gallery curve gets the Richardson
        extrapolation of the hulls of ORACLE_SAMPLES samples and of every other
        one. A polyline file gets the volume of mesh, the hull its convexity
        gate built on the file's own points."""
        if self.file is not None:
            return hull.mesh_volume(mesh)
        return hull.richardson_volume(sample_uniform(self.curve, ORACLE_SAMPLES).points)


def cmd_volume(args, phase) -> int:
    with phase("sample"):
        resolved = _ResolvedCurve(args.curve)
        samples = resolved.sample(args.n)
    with phase("volume"):
        result = hull_volume(samples, args.force, with_error_estimate=True)
        gate_hull_volume = hull.mesh_volume(result.hull)
        discrete_gap = abs(result.volume - gate_hull_volume) / gate_hull_volume
    oracle = gap = None
    if args.verify:
        with phase("oracle"):
            oracle = resolved.oracle_volume(result.hull)
            gap = abs(result.volume - oracle) / oracle

    _emit(
        "volume",
        {
            "curve_name": resolved.name,
            "n": samples.n,
            "planarity": result.planarity.as_dict(),
            "vertex_report": result.vertex_report.as_dict() if result.vertex_report else None,
            "discrete_gap": discrete_gap,
            "formula_volume": result.as_dict(),
            "oracle_volume": oracle,
            "relative_gap": gap,
        },
    )
    return 0


def cmd_area(args, phase) -> int:
    with phase("total"):
        resolved = _ResolvedCurve(args.curve)
        samples = resolved.sample(args.n)
        area, flat = quadrature._area_and_planarity(samples)  # refuses a non-planar curve
    _emit(
        "area",
        {
            "curve_name": resolved.name,
            "n": samples.n,
            "planarity": flat.as_dict(),
            "area": area,
        },
    )
    return 0


def cmd_converge(args, phase) -> int:
    resolved = _ResolvedCurve(args.curve)
    if resolved.file is None:
        text = DEFAULT_NS if args.ns is None else args.ns
        try:
            ns = [int(x) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise ValueError(f"bad --ns list {text!r}: {exc}") from None
        if not ns:
            raise ValueError("--ns list is empty")
        # every row sampled before the gates and the costly oracle
        ladder = [sample_uniform(resolved.curve, n) for n in ns]
    else:
        if args.ns is not None:
            _note_ignored("--ns")
        # every k-th point, the file itself (k = 1) always among them
        points = resolved.file.points
        ladder = [
            SampledCurve.from_points(points[::k])
            for k in FILE_STRIDES
            if k == 1 or len(points[::k]) >= MIN_STRIDE_POINTS
        ]
    # every row through the gates, the largest first, so that it names a refusal
    results = {}
    for samples in sorted(ladder, key=lambda s: s.n, reverse=True):
        with phase(f"n={samples.n}"):
            results[samples.n] = hull_volume(samples, args.force)
    # a file's reference is the hull its own row's convexity gate built
    oracle = resolved.oracle_volume(results[max(results)].hull)
    volumes = [(s.n, results[s.n].volume) for s in ladder]
    rows = [(n, v, oracle, abs(v - oracle) / oracle) for n, v in volumes]
    columns = ("n", "formula_volume", "oracle_volume", "relative_gap")

    if args.json:
        _emit(
            "converge",
            {
                "curve_name": resolved.name,
                "oracle_samples": ORACLE_SAMPLES if resolved.file is None else None,
                "rows": [dict(zip(columns, row)) for row in rows],
            },
        )
    else:
        print(",".join(columns))
        for n, v, o, g in rows:
            print(f"{n},{v:.17g},{o:.17g},{g:.6g}")
    return 0


def cmd_diagnose(args, phase) -> int:
    with phase("hull"):
        resolved = _ResolvedCurve(args.curve)
        samples = resolved.sample(args.n)
        mesh = is_convex_curve(samples)  # the planarity gate first, as in hull_volume

    with phase("structure"):
        vertex_report = discrete_vertex_report(samples)
        # P and the facet census are read on the points V was counted on, at
        # its stride: the noise it thinned away would split their hull into
        # spurious flat patches and discrete vertices
        k = vertex_report.stride
        strided = mesh if k == 1 else is_convex_curve(SampledCurve.from_points(samples.points[::k]))
        support = hull.support_polygons(strided)
        census = dict(zip(("k0", "k1", "k2"), hull.facet_census(strided)))
        for patch in support.patches:
            patch.sample_ids = [k * i for i in patch.sample_ids]  # indices of samples
        # the inequality holds only for a loop on its own convex hull
        slack = None
        if mesh.is_convex:
            slack = hull.four_vertex_slack(vertex_report.vertex_count, support.count)

    # covering multiplicity over seeded random interior probes
    with phase("probes"):
        histogram, probes = quadrature.covering_histogram(
            samples, mesh, args.probes, args.seed
        )

    _emit(
        "diagnose",
        {
            "curve_name": resolved.name,
            "n": samples.n,
            "seed": args.seed,
            "vertex_report": vertex_report.as_dict(),
            "non_extreme_count": len(mesh.buried),
            "support_polygons": support.as_dict(),
            "inequality_slack": slack,
            "facet_census": census,
            "multiplicity_histogram": {str(m): count for m, count in histogram.items()},
            "probes": probes,
        },
    )
    return 0


def cmd_export_mesh(args, phase) -> int:
    resolved = _ResolvedCurve(args.curve)
    mesh = is_convex_curve(resolved.sample(args.n))
    hull.save_obj(mesh, args.path)
    _emit(
        "export-mesh",
        {
            "curve_name": resolved.name,
            "path": str(args.path),
            "v_lines": int(len(mesh.points)),
            "f_lines": int(mesh.n_facets),
            "hull_vertices": int(mesh.n_vertices),
        },
    )
    return 0


def cmd_gallery_list(args, phase) -> int:
    entries = [gallery.get(name) for name in gallery.names()]
    if args.json:
        _emit(
            "gallery-list",
            {
                "curves": [
                    {
                        "name": e.name,
                        "defaults": e.params,
                        "expected_vertex_count": e.expected_vertex_count,
                        "expected_convex": e.expected_convex,
                        "planar": e.planar,
                        "description": e.description,
                    }
                    for e in entries
                ],
            },
        )
    else:
        for e in entries:
            label = e.spec_string
            print(f"{label:32s} {e.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvehull",
        description="Convex hull volume of closed space curves by chord-pair summation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("curve", help="gallery spec (e.g. saddle, wobble:k=5) or polyline file")
        p.add_argument(
            "--n",
            type=int,
            default=None,
            help="number of samples of a gallery curve (default 1000); "
            "ignored, with a note on stderr, for a polyline file, taken as it is",
        )

    p = sub.add_parser("volume", help="hull volume by the double-sum formula, with gates")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="cross-check against the hull oracle")
    p.add_argument("--force", action="store_true", help="skip the vertex-count gate")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("area", help="enclosed area of a planar curve")
    add_common(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("converge", help="formula-vs-oracle sweep over sample counts")
    p.add_argument("curve", help="gallery spec or polyline file")
    p.add_argument(
        "--ns",
        default=None,
        help=f"comma-separated sample counts of a gallery curve (default {DEFAULT_NS}); "
        "ignored, with a note on stderr, for a polyline file, whose rows are its every "
        f"k-th point, k = 1, 2, 4, 8, 16, in rows of at least {MIN_STRIDE_POINTS} points",
    )
    p.add_argument("--force", action="store_true", help="skip the vertex-count gate")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnose", help="vertex count, convexity, multiplicity histogram")
    add_common(p)
    p.add_argument(
        "--probes", type=_at_least(1, "probe count"), default=100, help="random interior probes"
    )
    p.add_argument("--seed", type=_at_least(0, "seed"), default=42, help="probe RNG seed (PCG64)")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("export-mesh", help="write the hull mesh as an OBJ file")
    add_common(p)
    p.add_argument("path", help="output OBJ path")
    p.set_defaults(func=cmd_export_mesh)

    p = sub.add_parser("gallery-list", help="list built-in curves")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gallery_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    phase = _PhaseTimer()
    try:
        code = args.func(args, phase)
    except GateError as exc:
        _emit(args.command, {"error": {"gate": exc.gate, "message": str(exc), **exc.details}})
        return 1
    except (OSError, ValueError, KeyError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    if phase:
        rounded = {k: round(v * 1000.0, 3) for k, v in phase.items()}
        print(f"# timing_ms {json.dumps(rounded, sort_keys=True)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
