"""Command-line front end.

Subcommands: volume, area, converge, diagnose, export-mesh, gallery-list.
Reports go to stdout as JSON (CSV for converge); timings go to stderr so
that stdout is byte-identical across repeated runs and thread counts.
Exit codes: 0 success, 1 validity gate failed, 2 I/O or parse error.
Every hull comes from is_convex_curve, which runs the planarity gate first.

Curves are given either as gallery specs ("saddle", "wobble:k=5") or as
paths to polyline files: plain text, one "x y z" triple per line, '#'
comments, loop closed implicitly. diagnose draws its probes inside the hull,
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
    piecewise_linear,
    planarity_check,
    require_convex,
    require_nonplanar,
    require_vertex_count,
    sample_uniform,
)
from .errors import GateError
from .quadrature import discrete_vertex_report, hull_volume, planar_area_integral

ORACLE_SAMPLES = 10_000    # --verify and converge oracle size; even, as it also hulls every other
_THREADS_HELP = "accepted for compatibility; changes neither the result nor the work"


def _emit(command: str, fields: dict) -> None:
    """Print one report: fields plus the schema version and command name."""
    report = {"schema": 3, "command": command, **fields}
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
    return SampledCurve.from_points(pts, name=os.path.basename(str(path)))


class _ResolvedCurve:
    """A curve argument resolved to working samples, gate points and a path.

    gate_points are a polyline file's own points, which lie on the underlying
    curve (resampled points sit on chords and would blur torsion), or else a
    gallery curve's working samples. path is the curve that sample_uniform
    walks to resample: the gallery curve, or the file's polyline.
    """

    def __init__(self, spec: str, n):
        looks_like_path = os.sep in spec or spec.endswith((".txt", ".xyz", ".poly"))
        if os.path.exists(spec) or looks_like_path:
            self.gate_points = load_polyline(spec)
            self.path = piecewise_linear(self.gate_points)
            same_n = n is None or n == self.gate_points.n
            self.samples = self.gate_points if same_n else sample_uniform(self.path, n)
        else:
            try:
                self.path = gallery.get(spec).curve
            except KeyError:
                raise KeyError(
                    f"{spec!r} is neither an existing polyline file nor a gallery "
                    f"curve (available: {', '.join(gallery.names())})"
                ) from None
            self.samples = self.gate_points = sample_uniform(self.path, 1000 if n is None else n)

    def gates(self, force: bool, skip_convexity: bool = False) -> tuple:
        """Planarity, then the vertex count unless force, then convexity unless
        skip_convexity: the volume formula's gate results, None where skipped."""
        flat = require_nonplanar(self.samples)
        points = self.gate_points
        vertex_report = None if force else require_vertex_count(discrete_vertex_report(points))
        convexity = None if skip_convexity else require_convex(points)
        return flat, vertex_report, convexity

    def oracle_volume(self, convexity) -> float:
        """Reference hull volume. A curve with derivatives gets the Richardson
        extrapolation of the hulls of ORACLE_SAMPLES samples and of every other
        one. A polyline gets the volume of the hull of its own points:
        convexity.hull, the mesh its convexity gate built, or the hull of a
        new convexity check when convexity is None."""
        if self.path.has_derivatives:
            return hull.richardson_volume(sample_uniform(self.path, ORACLE_SAMPLES).points)
        return hull.mesh_volume((convexity or is_convex_curve(self.gate_points)).hull)


def cmd_volume(args, phase) -> int:
    with phase("sample"):
        resolved = _ResolvedCurve(args.curve, args.n)
        samples = resolved.samples
    with phase("gates"):
        flat, vertex_report, convexity = resolved.gates(args.force, args.skip_convexity)
    with phase("volume"):
        # force: the gates already ran above (or were skipped on request)
        result = hull_volume(samples, force=True, with_error_estimate=True)
        discrete_gap = None
        # the gate's mesh is the hull of the summed samples only when they are
        # the gate points, as in cmd_diagnose
        if convexity and resolved.gate_points is samples:
            gate_hull_volume = hull.mesh_volume(convexity.hull)
            discrete_gap = abs(result.volume - gate_hull_volume) / gate_hull_volume
    oracle = gap = None
    if args.verify:
        with phase("oracle"):
            oracle = resolved.oracle_volume(convexity)
            gap = abs(result.volume - oracle) / oracle

    _emit(
        "volume",
        {
            "curve_name": resolved.path.name,
            "n": samples.n,
            "planarity": flat.as_dict(),
            "vertex_report": vertex_report.as_dict() if vertex_report else None,
            "convexity": convexity.is_convex if convexity else None,
            "discrete_gap": discrete_gap,
            "formula_volume": result.as_dict(),
            "oracle_volume": oracle,
            "relative_gap": gap,
            "unverified_hypothesis": args.force or args.skip_convexity,
        },
    )
    return 0


def cmd_area(args, phase) -> int:
    with phase("total"):
        resolved = _ResolvedCurve(args.curve, args.n)
        samples = resolved.samples
        area = planar_area_integral(samples)  # refuses a non-planar curve
        flat = planarity_check(samples)
    _emit(
        "area",
        {
            "curve_name": resolved.path.name,
            "n": samples.n,
            "planarity": flat.as_dict(),
            "area": area,
        },
    )
    return 0


def cmd_converge(args, phase) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --ns list {args.ns!r}: {exc}") from None
    if not ns:
        raise ValueError("--ns list is empty")

    resolved = _ResolvedCurve(args.curve, max(ns))
    # the whole ladder, before the gates and the costly oracle; a file is
    # resampled even at its own n
    ladder = [sample_uniform(resolved.path, n) for n in ns]
    convexity = resolved.gates(args.force)[2]
    oracle = resolved.oracle_volume(convexity)

    rows = []
    for samples in ladder:
        with phase(f"n={samples.n}"):
            volume = hull_volume(samples, force=True).volume
        rows.append((samples.n, volume, oracle, abs(volume - oracle) / oracle))

    if args.json:
        _emit(
            "converge",
            {
                "curve_name": resolved.path.name,
                "oracle_samples": ORACLE_SAMPLES if resolved.path.has_derivatives else None,
                "rows": [
                    {"n": n, "formula_volume": v, "oracle_volume": o, "relative_gap": g}
                    for n, v, o, g in rows
                ],
            },
        )
    else:
        print("n,formula_volume,oracle_volume,relative_gap")
        for n, v, o, g in rows:
            print(f"{n},{v:.17g},{o:.17g},{g:.6g}")
    return 0


def cmd_diagnose(args, phase) -> int:
    with phase("hull"):
        resolved = _ResolvedCurve(args.curve, args.n)
        samples, gate_points = resolved.samples, resolved.gate_points
        require_nonplanar(samples)  # first, as in volume's gates, so both refuse alike
        convexity = is_convex_curve(gate_points)
        # the convexity check read the hull of samples unless a polyline was resampled
        mesh = (convexity if gate_points is samples else is_convex_curve(samples)).hull

    with phase("structure"):
        vertex_report = discrete_vertex_report(gate_points)
        # P is read on the points V was counted on, at its stride: the noise it
        # thinned away would split their hull into spurious flat patches
        k = vertex_report.stride
        if k == 1:
            support = hull.support_polygons(convexity.hull)
        else:
            strided = SampledCurve.from_points(gate_points.points[::k])
            support = hull.support_polygons(is_convex_curve(strided).hull)
            for patch in support.patches:
                patch.sample_ids = [k * i for i in patch.sample_ids]  # indices of gate_points
        # the inequality holds only for a loop on its own convex hull
        inequality = None
        if convexity.is_convex:
            inequality = hull.four_vertex_inequality_report(
                vertex_report.vertex_count, support.count
            ).as_dict()

    # sign classification over a subsampled index grid
    with phase("classify"):
        n = samples.n
        stride = max(1, n // 64)
        grid = np.arange(0, n, stride)
        labels = quadrature.classify_pairs(samples, grid, grid)[0]
        labels = labels[grid[:, None] != grid[None, :]]  # off the diagonal
        classification = {
            "grid_stride": int(stride),
            "pairs": int(labels.size),
            **{k: int((labels == k).sum()) for k in ("interior", "boundary", "degenerate")},
        }

    # covering multiplicity over seeded random interior probes
    with phase("probes"):
        histogram, probes = quadrature.covering_histogram(samples, mesh, args.probes, args.seed)

    _emit(
        "diagnose",
        {
            "curve_name": resolved.path.name,
            "n": samples.n,
            "seed": args.seed,
            "vertex_report": vertex_report.as_dict(),
            "convexity": convexity.is_convex,
            "non_extreme_count": len(convexity.non_extreme),
            "support_polygons": support.as_dict(),
            "inequality": inequality,
            "pair_classification": classification,
            "multiplicity_histogram": {str(m): count for m, count in histogram.items()},
            "probes": probes,
        },
    )
    return 0


def cmd_export_mesh(args, phase) -> int:
    resolved = _ResolvedCurve(args.curve, args.n)
    mesh = is_convex_curve(resolved.samples).hull
    hull.save_obj(mesh, args.path)
    _emit(
        "export-mesh",
        {
            "curve_name": resolved.path.name,
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
            help="number of samples (default: 1000 for gallery curves, file as-is for polylines)",
        )

    p = sub.add_parser("volume", help="hull volume by the double-sum formula, with gates")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="cross-check against the hull oracle")
    p.add_argument("--force", action="store_true", help="skip the vertex-count gate")
    p.add_argument("--skip-convexity", action="store_true", help="skip the convexity gate")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("area", help="enclosed area of a planar curve")
    add_common(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("converge", help="formula-vs-oracle sweep over sample counts")
    p.add_argument("curve", help="gallery spec or polyline file")
    p.add_argument(
        "--ns",
        default="125,250,500,1000,2000",
        help="comma-separated sample counts (default 125,250,500,1000,2000)",
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
