"""
Hull meshes on disk, and the planar fallback
============================================

Two supporting tools around the volume formula. First, any hull can be
written as a watertight OBJ triangle mesh and opened in any mesh viewer.
Second, planar loops (where a 3D hull volume is meaningless) route to the
shoelace-style area integral instead.
"""

import os
import tempfile

import numpy as np

from curvehull import (
    SampledCurve,
    build_hull,
    gallery,
    mesh_volume,
    planar_area_integral,
    sample_uniform,
    save_obj,
    support_polygons,
)

sc = sample_uniform(gallery.get("baseball").curve, 400)
mesh = build_hull(sc.points)
print(f"baseball hull: {mesh.n_vertices} vertices, {mesh.n_facets} facets, "
      f"volume {mesh_volume(mesh):.6f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "baseball_hull.obj")
    save_obj(mesh, path)
    with open(path) as fh:
        lines = fh.readlines()
print(f"wrote {os.path.basename(path)}: {len(lines)} lines, first two:")
print("  " + lines[0].strip())
print("  " + lines[1].strip())

# support patches: flat spots on the hull touched by three separated arcs.
# the baseball has none; wobble(3) owns two (its z = +/-1 caps)
for spec in ("baseball", "wobble:k=3"):
    s = sample_uniform(gallery.get(spec).curve, 500)
    rep = support_polygons(build_hull(s.points))
    print(f"{spec}: {rep.count} support patches")

print()

# planar loops: area instead of volume
square = SampledCurve.from_points(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
)
print(f"unit square area: {planar_area_integral(square):.15f}")

t = np.linspace(0.0, 2 * np.pi, 10_001)[:-1]
circle = SampledCurve.from_points(np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1))
print(f"10k-gon circle area: {planar_area_integral(circle):.10f} "
      f"(pi = {np.pi:.10f})")

# the integral is evaluated in the loop's own plane, so rigid motions do
# nothing to it
rng = np.random.default_rng(5)
q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
tilted = SampledCurve.from_points(square.points @ q.T + np.array([3.0, -1.0, 2.0]))
print(f"rotated + shifted square area: {planar_area_integral(tilted):.15f}")
