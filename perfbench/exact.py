"""Independent exact arithmetic and fan construction for the benchmark.

The benchmark builds its input fans and computes its expectations here,
with plain tuples and Fractions, so that no expected value comes from the
code under test.  A fan is a pair (rays, cones): rays a tuple of integer
tuples, cones a tuple of sorted ray-index tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def cpn(k):
    rays = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rays.append((-1,) * k)
    return tuple(rays), tuple(combinations(range(k + 1), k))


def hirzebruch(a):
    return ((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))


def quadrant(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), (tuple(range(n)),)


def star_subdivide(fan, cone):
    """Replace a maximal cone by the cones joining its facets to the
    primitive sum of its generators."""
    rays, cones = fan
    new = primitive(tuple(map(sum, zip(*(rays[i] for i in cone)))))
    j = len(rays)
    kept = [c for c in cones if c != cone]
    kept += [tuple(sorted(set(cone) - {i} | {j})) for i in cone]
    return rays + (new,), tuple(sorted(kept))


def subdivision_chain(fan, steps, rng):
    """`steps` star subdivisions of seeded random full-dimensional cones."""
    for _ in range(steps):
        fan = star_subdivide(fan, rng.choice(fan[1]))
    return fan


def drop_cone(fan, rng):
    """A complete valid fan minus one maximal cone: valid and incomplete."""
    rays, cones = fan
    gone = rng.choice(cones)
    return rays, tuple(c for c in cones if c != gone)


def mutate_overlap(fan, rng):
    """Add the cone (g_1 + ... + g_n, g_2, ..., g_n) inside a maximal cone
    (g_1, ..., g_n): the two overlap in an interior, so the intersection
    axiom fails.  The new ray lies in an open cone of a valid fan, so it
    is not already a ray."""
    rays, cones = fan
    cone = rng.choice(cones)
    new = primitive(tuple(map(sum, zip(*(rays[i] for i in cone)))))
    j = len(rays)
    return rays + (new,), tuple(sorted(cones + (cone[1:] + (j,),)))


def mutate_non_unimodular(fan, rng):
    """Swap g_1 for 2 g_1 + g_2 in one maximal cone: |det| becomes 2."""
    rays, cones = fan
    cone = rng.choice(cones)
    g1, g2 = rays[cone[0]], rays[cone[1]]
    new = tuple(2 * a + b for a, b in zip(g1, g2))
    if new in rays:
        j = rays.index(new)
    else:
        j = len(rays)
        rays = rays + (new,)
    swapped = tuple(sorted((j,) + cone[1:]))
    return rays, tuple(sorted(c if c != cone else swapped for c in cones))


def inverse(m):
    """Inverse of a square matrix as rows of Fractions, or None if singular."""
    n = len(m)
    w = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if w[r][col]), None)
        if piv is None:
            return None
        w[col], w[piv] = w[piv], w[col]
        p = w[col][col]
        w[col] = [x / p for x in w[col]]
        for r in range(n):
            if r != col and w[r][col]:
                f = w[r][col]
                w[r] = [x - f * y for x, y in zip(w[r], w[col])]
    return [row[n:] for row in w]


def rank(rows):
    w = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(w[0]) if w else 0):
        piv = next((i for i in range(r, len(w)) if w[i][col]), None)
        if piv is None:
            continue
        w[r], w[piv] = w[piv], w[r]
        for i in range(len(w)):
            if i != r and w[i][col]:
                f = w[i][col] / w[r][col]
                w[i] = [x - f * y for x, y in zip(w[i], w[r])]
        r += 1
    return r


def dual_basis(gens):
    """Integer rows A with <A_i, g_j> = delta_ij, for a unimodular cone."""
    inv = inverse(gens)
    n = len(gens)
    return tuple(tuple(int(inv[j][i]) for j in range(n)) for i in range(n))


def pairs_to_identity(weights, gens):
    n = len(gens)
    return all(
        sum(a * b for a, b in zip(weights[i], gens[j])) == int(i == j)
        for i in range(n) for j in range(n)
    )


def coefficients(gens, v):
    """Coefficients of v in the linearly independent generators, or None
    when v is outside their span."""
    k = len(gens)
    if k == 0:
        return () if not any(v) else None
    n = len(v)
    # rows: one equation per ambient coordinate, unknowns a_1..a_k
    w = [[Fraction(g[i]) for g in gens] + [Fraction(v[i])] for i in range(n)]
    r = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(r, n) if w[i][col]), None)
        if piv is None:
            return None
        w[r], w[piv] = w[piv], w[r]
        p = w[r][col]
        w[r] = [x / p for x in w[r]]
        for i in range(n):
            if i != r and w[i][col]:
                f = w[i][col]
                w[i] = [x - f * y for x, y in zip(w[i], w[r])]
        pivots.append(r)
        r += 1
    if any(w[i][k] for i in range(r, n)):
        return None
    return tuple(w[i][k] for i in pivots)


def in_relative_interior(gens, v):
    a = coefficients(gens, v)
    return a is not None and all(x > 0 for x in a)


def in_support(fan, v):
    rays, cones = fan
    for c in cones:
        a = coefficients([rays[i] for i in c], v)
        if a is not None and all(x >= 0 for x in a):
            return True
    return False


def fans_equal(a, b):
    """Same ray set and same maximal cones after relabeling ray indices."""
    (ra, ca), (rb, cb) = a, b
    if len(ra) != len(rb) or set(ra) != set(rb):
        return False
    position = {r: i for i, r in enumerate(rb)}
    return ({tuple(sorted(position[ra[i]] for i in c)) for c in ca}
            == {tuple(sorted(c)) for c in cb})
