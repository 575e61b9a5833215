"""Command-line front end.

Subcommands: volume, area, converge, diagnose, export-mesh, gallery-list.
Reports go to stdout as JSON (CSV for converge); timings go to stderr so
that stdout is byte-identical across repeated runs and thread counts.
Exit codes: 0 success, 1 validity gate failed, 2 I/O or parse error.

Curves are given either as gallery specs ("saddle", "wobble:k=5") or as
paths to polyline files: plain text, one "x y z" triple per line, '#'
comments, loop closed implicitly. Probe sampling uses numpy's default_rng
(PCG64) seeded by --seed, so diagnostics are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import gallery, hull, quadrature
from .curves import (
    SampledCurve,
    count_vertices,
    discrete_frenet_profile,
    frenet_profile,
    is_convex_curve,
    piecewise_linear,
    planarity_check,
    require_convex,
    require_nonplanar,
    require_vertex_count,
    sample_uniform,
)
from .errors import CurveHullError, GateError
from .quadrature import hull_volume, planar_area_integral

ORACLE_SAMPLES = 200_000   # hull oracle resolution for --verify and converge
PROBE_MARGIN_RTOL = 0.01   # min probe clearance vs loop length in diagnose
_GATE_PROFILE_MIN = 512    # min sample count for the analytic vertex gate
_THREADS_HELP = "accepted for compatibility; changes neither the result nor the work"


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # a numpy scalar's tolist() is its item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True, default=_json_default))


def _stderr_timing(phases: dict) -> None:
    rounded = {k: round(v * 1000.0, 3) for k, v in phases.items()}
    print(f"# timing_ms {json.dumps(rounded, sort_keys=True)}", file=sys.stderr)


def _multiplicity(text: str) -> int:
    """The --m argument: a covering multiplicity, an integer of at least 1."""
    try:
        m = int(text)
    except ValueError:
        m = 0
    if m < 1:
        raise argparse.ArgumentTypeError(
            f"covering multiplicity must be an integer >= 1, got {text!r}"
        )
    return m


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
    if len(pts) > 1 and np.linalg.norm(pts[-1] - pts[0]) <= 1e-12 * scale:
        pts = pts[:-1]  # tolerate an explicitly repeated first point
    return SampledCurve.from_points(pts, name=os.path.basename(str(path)))


class _ResolvedCurve:
    """A curve argument resolved to working samples plus gate inputs.

    For gallery curves the vertex gate runs on an analytic Frenet profile
    and the working samples come from uniform resampling at n. For polyline
    files the gates run on the file's own points (they lie on the underlying
    curve; resampled points sit on chords and would blur torsion), while the
    double sum runs on the resampled loop when n is given.
    """

    def __init__(self, spec: str, n):
        self.spec = spec
        looks_like_path = os.sep in spec or spec.endswith((".txt", ".xyz", ".poly"))
        if os.path.exists(spec) or looks_like_path:
            self.entry = None
            self.gate_curve = load_polyline(spec)
            self.name = self.gate_curve.name
            if n is not None and n != self.gate_curve.n:
                self.samples = self.resample(n)
            else:
                self.samples = self.gate_curve
        else:
            try:
                self.entry = gallery.get(spec)
            except KeyError:
                raise KeyError(
                    f"{spec!r} is neither an existing polyline file nor a gallery "
                    f"curve (available: {', '.join(gallery.names())})"
                ) from None
            self.name = self.entry.name
            self.gate_curve = None
            self.samples = self.resample(n if n is not None else 1000)

    def resample(self, n: int) -> SampledCurve:
        """n samples uniform in arc length, along the polyline for a file."""
        if self.entry is not None:
            return sample_uniform(self.entry.curve, n)
        return sample_uniform(piecewise_linear(self.gate_curve), n)

    def vertex_report(self):
        if self.entry is not None:
            m = max(self.samples.n, _GATE_PROFILE_MIN)
            return count_vertices(frenet_profile(self.entry.curve, m))
        return count_vertices(discrete_frenet_profile(self.gate_curve))

    def convexity_samples(self) -> SampledCurve:
        return self.gate_curve if self.entry is None else self.samples

    def gates(self, m: int, force: bool, skip_convexity: bool = False) -> tuple:
        """Planarity, then the vertex count unless force, then convexity unless
        skip_convexity: the volume formula's gate results, None where skipped."""
        flat = require_nonplanar(self.samples)
        vertex_report = None if force else require_vertex_count(self.vertex_report(), m)
        convexity = None if skip_convexity else require_convex(self.convexity_samples())
        return flat, vertex_report, convexity

    def oracle_volume(self) -> float:
        """Reference hull volume from a dense, fixed-resolution point set."""
        if self.entry is not None:
            dense = sample_uniform(self.entry.curve, ORACLE_SAMPLES)
            return hull.mesh_volume(hull.build_hull(dense.points))
        # a polyline's hull is the hull of its vertices; resampling adds nothing
        return hull.mesh_volume(hull.build_hull(self.gate_curve.points))


def cmd_volume(args) -> int:
    phases = {}
    t0 = time.perf_counter()
    resolved = _ResolvedCurve(args.curve, args.n)
    samples = resolved.samples
    phases["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    flat, vertex_report, convexity = resolved.gates(args.m, args.force, args.skip_convexity)
    phases["gates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = hull_volume(
        samples,
        multiplicity=args.m,
        threads=args.threads,
        force=True,  # gates already ran above (or were skipped on request)
        with_error_estimate=True,
    )
    phases["volume"] = time.perf_counter() - t0

    oracle = gap = None
    if args.verify:
        t0 = time.perf_counter()
        oracle = resolved.oracle_volume()
        gap = abs(result.volume - oracle) / oracle if oracle > 0 else None
        phases["oracle"] = time.perf_counter() - t0

    report = {
        "schema": 1,
        "command": "volume",
        "curve_name": resolved.name,
        "n": samples.n,
        "multiplicity_m": args.m,
        "planarity": flat.as_dict(),
        "vertex_report": vertex_report.as_dict() if vertex_report else None,
        "convexity": convexity.is_convex if convexity else None,
        "non_extreme_count": len(convexity.non_extreme) if convexity else None,
        "formula_volume": result.as_dict(),
        "oracle_volume": oracle,
        "relative_gap": gap,
        "unverified_hypothesis": bool(args.force),
    }
    _emit(report)
    _stderr_timing(phases)
    return 0


def cmd_area(args) -> int:
    phases = {}
    t0 = time.perf_counter()
    resolved = _ResolvedCurve(args.curve, args.n)
    samples = resolved.samples
    area = planar_area_integral(samples)  # refuses a non-planar curve
    flat = planarity_check(samples)
    phases["total"] = time.perf_counter() - t0
    _emit(
        {
            "schema": 1,
            "command": "area",
            "curve_name": resolved.name,
            "n": samples.n,
            "planarity": flat.as_dict(),
            "area": area,
        }
    )
    _stderr_timing(phases)
    return 0


def cmd_converge(args) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --ns list {args.ns!r}: {exc}") from None
    if not ns:
        raise ValueError("--ns list is empty")

    resolved = _ResolvedCurve(args.curve, max(ns))
    resolved.gates(args.m, args.force)  # before the costly oracle
    oracle = resolved.oracle_volume()

    rows = []
    for n in ns:
        samples = resolved.resample(n)  # a file is resampled even at its own n
        t0 = time.perf_counter()
        result = hull_volume(samples, multiplicity=args.m, threads=args.threads, force=True)
        seconds = time.perf_counter() - t0
        gap = abs(result.volume - oracle) / oracle
        rows.append((n, result.volume, oracle, gap, seconds))

    if args.json:
        _emit(
            {
                "schema": 1,
                "command": "converge",
                "curve_name": resolved.name,
                "oracle_samples": ORACLE_SAMPLES if resolved.entry is not None else None,
                "rows": [
                    {
                        "n": n,
                        "formula_volume": v,
                        "oracle_volume": o,
                        "relative_gap": g,
                        "seconds": round(s, 3),
                    }
                    for n, v, o, g, s in rows
                ],
            }
        )
    else:
        print("n,formula_volume,oracle_volume,relative_gap,seconds")
        for n, v, o, g, s in rows:
            print(f"{n},{v:.17g},{o:.17g},{g:.6g},{s:.3f}")
    return 0


def cmd_diagnose(args) -> int:
    phases = {}
    t0 = time.perf_counter()
    resolved = _ResolvedCurve(args.curve, args.n)
    samples = resolved.samples
    mesh = hull.build_hull(samples.points)  # planar input rejects here
    phases["hull"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    vertex_report = resolved.vertex_report()
    gate_samples = resolved.convexity_samples()
    # the hull of samples is the hull the convexity check would build
    convexity = is_convex_curve(gate_samples, hull=mesh if gate_samples is samples else None)
    support = hull.support_polygons(mesh)
    inequality = hull.four_vertex_inequality_report(
        vertex_count=vertex_report.vertex_count,
        support_count=support.count,
    )
    phases["structure"] = time.perf_counter() - t0

    # sign classification over a subsampled index grid
    t0 = time.perf_counter()
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
    phases["classify"] = time.perf_counter() - t0

    # covering multiplicity over seeded random interior probes
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    lo = samples.points.min(axis=0)
    hi = samples.points.max(axis=0)
    margin = PROBE_MARGIN_RTOL * samples.total_length
    histogram = {}
    outside = near_boundary = chord_failures = evaluated = attempts = 0
    cap = args.probes * 1000
    while evaluated < args.probes and attempts < cap:
        attempts += 1
        p = rng.uniform(lo, hi)
        sd = hull.signed_distance(mesh, p)
        if sd >= -mesh.eps:
            outside += 1
            continue
        if sd > -margin:
            near_boundary += 1
            continue
        evaluated += 1
        try:
            m = quadrature.estimate_covering_multiplicity(samples, p, mesh=mesh)
        except CurveHullError:
            chord_failures += 1
            continue
        histogram[m] = histogram.get(m, 0) + 1
    phases["probes"] = time.perf_counter() - t0

    _emit(
        {
            "schema": 1,
            "command": "diagnose",
            "curve_name": resolved.name,
            "n": samples.n,
            "seed": args.seed,
            "vertex_report": vertex_report.as_dict(),
            "convexity": convexity.is_convex,
            "non_extreme_count": len(convexity.non_extreme),
            "support_polygons": support.as_dict(),
            "inequality": inequality.as_dict(),
            "pair_classification": classification,
            "multiplicity_histogram": {str(k): histogram[k] for k in sorted(histogram)},
            "probes": {
                "requested": args.probes,
                "evaluated": evaluated,
                "rejected_outside": outside,
                "rejected_near_boundary": near_boundary,
                "chord_failures": chord_failures,
            },
        }
    )
    _stderr_timing(phases)
    return 0


def cmd_export_mesh(args) -> int:
    resolved = _ResolvedCurve(args.curve, args.n)
    mesh = hull.build_hull(resolved.samples.points)
    hull.save_obj(mesh, args.path)
    _emit(
        {
            "schema": 1,
            "command": "export-mesh",
            "curve_name": resolved.name,
            "path": str(args.path),
            "v_lines": int(len(mesh.points)),
            "f_lines": int(mesh.n_facets),
            "hull_vertices": int(mesh.n_vertices),
        }
    )
    return 0


def cmd_gallery_list(args) -> int:
    entries = [gallery.get(name) for name in gallery.names()]
    if args.json:
        _emit(
            {
                "schema": 1,
                "command": "gallery-list",
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
            }
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
    p.add_argument("--m", type=_multiplicity, default=4, help="covering multiplicity (default 4)")
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
    p.add_argument("--m", type=_multiplicity, default=4, help="covering multiplicity (default 4)")
    p.add_argument("--force", action="store_true", help="skip the vertex-count gate")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnose", help="vertex count, convexity, multiplicity histogram")
    add_common(p)
    p.add_argument("--probes", type=int, default=100, help="random interior probes")
    p.add_argument("--seed", type=int, default=42, help="probe RNG seed (PCG64)")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("export-mesh", help="write the hull mesh as an OBJ file")
    p.add_argument("curve", help="gallery spec or polyline file")
    p.add_argument("path", help="output OBJ path")
    p.add_argument("--n", type=int, default=None, help="number of samples")
    p.set_defaults(func=cmd_export_mesh)

    p = sub.add_parser("gallery-list", help="list built-in curves")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gallery_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GateError as exc:
        _emit(
            {
                "schema": 1,
                "command": args.command,
                "error": {
                    "gate": exc.gate,
                    "message": str(exc),
                    **exc.details,
                },
            }
        )
        return 1
    except (OSError, ValueError, KeyError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
