"""
Sign flips locate the hull boundary
===================================

The summand of the volume formula is a signed tetra volume V_ij. Sliding the
first edge by one step and watching the sign of V_ij flip is a hull detector:
a flip means the swept triangle {r_{i+1}, r_j, r_{j+1}} sits on the hull
boundary, equal signs mean the chord pair stays interior. Here we classify
every pair on a saddle loop and verify both claims against quickhull.
"""

import numpy as np

from curvehull import build_hull, classify_pairs, gallery, sample_uniform, signed_distance

n = 201  # odd on purpose: perfect antipodal symmetry at even n makes every
# flip exactly degenerate and the boundary class empty
sc = sample_uniform(gallery.get("saddle").curve, n)
mesh = build_hull(sc.points)

# every pair (i, j) in one grid; j in {i, i+1} spans no triangle
idx = np.arange(n)
labels = classify_pairs(sc, idx, idx)
pair = (idx[None, :] != idx[:, None]) & (idx[None, :] != (idx[:, None] + 1) % n)
counts = {k: int(np.count_nonzero(labels[pair] == k))
          for k in ("interior", "boundary", "degenerate")}
print(f"n = {n}: {counts}")


def centroids(i, j):
    """Centroids of the swept triangles {r_{i+1}, r_j, r_{j+1}}."""
    return (sc.points[(i + 1) % n] + sc.points[j] + sc.points[(j + 1) % n]) / 3.0


# boundary triangles: every centroid must lie on the hull surface
i, j = np.nonzero(pair & (labels == "boundary"))
worst = float(np.max(np.abs(signed_distance(mesh, centroids(i, j)))))
print(f"{len(i)} boundary triangles, worst centroid "
      f"|signed distance| = {worst:.2e} (hull eps = {mesh.eps:.2e})")

# interior spot check: of 200 random pairs, the interior-labelled ones give
# strictly inside centroids
i, j = np.random.default_rng(0).integers(0, n, size=(200, 2)).T
keep = pair[i, j] & (labels[i, j] == "interior")
inside = int(np.count_nonzero(signed_distance(mesh, centroids(i[keep], j[keep])) < -mesh.eps))
print(f"interior spot check: {inside} sampled interior centroids strictly inside")
