"""
Convex hull volume from chords alone
====================================

The headline identity: for a closed convex curve with exactly four torsion
sign changes, summing |signed tetra volume| over every ordered pair of edges
and dividing by 4 gives the volume of the convex hull. No hull is built on
the formula side of the comparison; the hull only appears as the referee.
"""

import numpy as np

from curvehull import gallery, hull_volume, richardson_volume, sample_uniform

curve = gallery.get("saddle").curve

# referee: quickhulls of 10k samples and of every other one, extrapolated
oracle = richardson_volume(sample_uniform(curve, 10_000).points)
print(f"oracle volume (Richardson, 10k/5k-point hulls): {oracle:.10f}")
print()

print(" n      formula          rel gap")
for n in (125, 250, 500, 1000, 2000):
    res = hull_volume(sample_uniform(curve, n))
    gap = abs(res.volume - oracle) / oracle
    print(f"{n:5d}  {res.volume:.10f}  {gap:9.3e}")

print()
print("the gap falls roughly like 1/n^2: doubling n buys a factor ~4")
print(f"the limit is exactly pi ({np.pi:.10f}): the hull is pinched between")
print("the parabolic sheets z = 1 - 2y^2 and z = 2x^2 - 1, whose gap")
print("integrates to pi over the unit disk")

# the built-in half-resolution error estimate tracks the true gap
sc = sample_uniform(curve, 1000)
res = hull_volume(sc, with_error_estimate=True)
print(f"self-estimate at n=1000: {res.error_estimate:.3e} "
      f"(true gap {abs(res.volume - oracle) / oracle * oracle:.3e})")
