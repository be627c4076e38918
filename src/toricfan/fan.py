"""Fans of unimodular cones.

A fan is stored as a ray table plus its simplicial complex Sigma
(SimplicialComplex), the one store of its combinatorics: the maximal
cones and a map from each ray to the maximal cones holding it.  A set
of rays is a cone of the fan when some maximal cone holds all of them,
so the face closure (2^k faces of a cone of k rays) is built only when
Fan.cones or Sigma's faces are read.  Each cone's facet description is
cached on the fan for every layer to read; the charts of the maximal
cones are stored once, in Fan.charts, by a walk across their walls.
Axiom checking, the facet-pairing completeness criterion, the ray-casting
completeness oracle, and star subdivision all live here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from operator import add, mul, sub

from . import lattice
from .cone import (
    Cone,
    RayTable,
    facet_pairings,
    halfspace_description,
    intersect_descriptions,
    make_table,
    unimodular,
)
from .errors import (
    DegenerateSubdivision,
    DependentGenerators,
    MalformedInput,
    NotMaximal,
    NotUnimodular,
    ZeroVector,
)

IndexSet = tuple[int, ...]


class Fan:
    """Immutable fan: ray table and simplicial complex (see sigma).

    Construction rejects structurally broken input and builds the
    complex once, which normalizes the listed cones (sorts, deduplicates,
    absorbs subsets) and builds no face closure (see `cones`).  It does
    not check the fan axioms themselves -- that is validate()'s job, so
    that invalid fans can be represented and reported on.
    """

    def __init__(self, table: RayTable, maximal_cones):
        cones = []
        for raw in maximal_cones:
            idx = tuple(sorted(raw))
            if len(set(idx)) != len(idx):
                raise MalformedInput(f"repeated ray index in cone {raw}")
            if idx and (idx[0] < 0 or idx[-1] >= len(table)):
                raise MalformedInput(f"ray index out of range in cone {raw}")
            cones.append(idx)
        sigma = SimplicialComplex(len(table), cones)
        if len(sigma._incidence) != len(table):
            missing = sorted(set(range(len(table))) - sigma._incidence.keys())
            raise MalformedInput(f"rays {missing} appear in no maximal cone")
        self._table = table
        self._sigma = sigma
        self._description_cache: dict[IndexSet, tuple] = {}

    @property
    def table(self) -> RayTable:
        return self._table

    @property
    def rays(self) -> tuple:
        return self._table.rays

    @property
    def ambient_dim(self) -> int:
        return self._table.dim

    @property
    def ray_count(self) -> int:
        return len(self._table)

    @property
    def maximal_cones(self) -> tuple[IndexSet, ...]:
        return self._sigma.maximal_faces

    def is_maximal(self, indices: IndexSet) -> bool:
        """Is the sorted index set one of the maximal cones?  O(1): a
        maximal cone is in the incidence set of each of its rays."""
        if not indices:
            return self.maximal_cones == ((),)
        return indices in self._sigma._incidence.get(indices[0], ())

    @property
    def cones(self) -> frozenset[IndexSet]:
        """Face closure: every cone of the fan as a sorted index set, all
        2^k faces of each maximal cone of k rays; built on first use."""
        return self._sigma.faces

    @cached_property
    def facet_map(self) -> dict[IndexSet, tuple[IndexSet, ...]]:
        """Each codimension-one cone mapped to the full-dimensional maximal
        cones containing it (possibly none), in ascending order; built on
        first use, with _neighbours, by _walls."""
        return self._walls[0]

    @cached_property
    def _neighbours(self) -> dict[IndexSet, list[tuple[int, IndexSet, int]]]:
        """Each full-dimensional maximal cone c mapped to the triples
        (i, d, p): d is another full-dimensional maximal cone holding c's
        wall opposite its i-th ray, and d's ray outside that wall is its
        p-th.  Built with facet_map by _walls, so the chart walk and the
        wall certificate neither slice a wall nor search an index tuple."""
        return self._walls[1]

    @cached_property
    def _walls(self):
        """(facet_map, _neighbours) from one pass in O(m*n) over the m
        maximal cones of at most n rays.

        A full-dimensional cone containing an (n-1)-cone is that cone plus
        one ray, so it is found from its own facets, each recorded with
        the position of the ray it leaves out.  Codimension-one faces of
        the other maximal cones are keys of facet_map too, so its keys are
        exactly the (n-1)-cones of the face closure.
        """
        n = self.ambient_dim
        held: dict[IndexSet, list[tuple[IndexSet, int]]] = {}
        for c in self.maximal_cones:
            if len(c) == n:
                # combinations leaves out the last ray first, then the others
                for i, wall in zip(range(n - 1, -1, -1), combinations(c, n - 1)):
                    held.setdefault(wall, []).append((c, i))
            elif len(c) >= n - 1:
                for facet in combinations(c, n - 1):
                    held.setdefault(facet, [])
        facet_map = {}
        across: dict[IndexSet, list] = {c: [] for c in self.maximal_cones if len(c) == n}
        for wall, slots in held.items():
            if len(slots) == 2:
                (c, i), (d, p) = slots
                facet_map[wall] = (c, d)
                across[c].append((i, d, p))
                across[d].append((p, c, i))
            else:
                facet_map[wall] = tuple([c for c, _ in slots])
                for c, i in slots:
                    across[c] += [(i, d, p) for d, p in slots if d != c]
        return facet_map, across

    @cached_property
    def charts(self) -> dict[IndexSet, tuple | None]:
        """Each maximal cone, in order, mapped to its chart: the integer
        dual basis of its generators (None for a cone without one).  The
        one store of the charts, built on first use; chart_weights and
        every other layer read it.

        The charts are found by a walk across the walls of _neighbours,
        the wall-crossing rule of adjacent fixed points.  Each
        full-dimensional cone no walk has reached yet seeds one with a
        Hermite normal form (lattice.dual_basis); from a unimodular cone,
        each neighbour's dual basis follows by _cross_wall in O(n^2).  A
        neighbour that is not unimodular gets None and is not crossed; the
        cones beyond it get their own seed.  So a complete unimodular fan
        costs one HNF.
        """
        n = self.ambient_dim
        neighbours = self._neighbours
        rays = self._table.rays
        found: dict[IndexSet, tuple | None] = {}
        for seed in self.maximal_cones:
            if seed in found:
                continue
            found[seed] = None
            if len(seed) != n:
                continue
            try:
                found[seed] = lattice.dual_basis(self.generators(seed))
            except NotUnimodular:
                continue
            stack = [seed]
            while stack:
                c = stack.pop()
                rows = found[c]
                for i, d, p in neighbours[c]:
                    if d not in found:
                        found[d] = _cross_wall(rows, i, rays[d[p]], p)
                        if found[d] is not None:
                            stack.append(d)
        return {c: found[c] for c in self.maximal_cones}

    @cached_property
    def _facet_verdict(self) -> tuple[bool, FacetReport]:
        """is_complete_facet's verdict and report, computed once."""
        n = self.ambient_dim
        top = any(len(c) == n for c in self.maximal_cones)
        undominated = tuple(c for c in self.maximal_cones if len(c) < n)
        pure = not undominated
        counts = tuple(sorted((facet, len(cs)) for facet, cs in self.facet_map.items()))
        complete = top and pure and all(k == 2 for _, k in counts)
        return complete, FacetReport(complete, pure, counts, undominated)

    def cone(self, indices) -> Cone:
        """The cone over `indices`, which must be a face of some maximal
        cone (MalformedInput otherwise)."""
        idx = tuple(sorted(indices))
        if idx not in self._sigma:
            raise MalformedInput(f"{set(idx) if idx else '{}'} is not a cone of this fan")
        return Cone(self._table, idx)

    def generators(self, indices) -> tuple:
        rays = self._table.rays
        return tuple([rays[i] for i in indices])

    def chart_weights(self, indices):
        """The chart of a full-dimensional unimodular maximal cone, read
        from `charts` for any spelling of its ray indices; None for any
        other index set.

        Row i pairs to 1 with the i-th generator in ascending ray-index
        order and to 0 with the others: these are the isotropy weights of
        the cone's fixed point and its facet normals.  No Hermite form
        runs here.
        """
        charts = self.charts
        if type(indices) is not tuple or indices not in charts:
            indices = tuple(sorted(indices))
        return charts.get(indices)

    def description(self, indices):
        """Facet normals and span equations (ineqs, eqns) of the cone over
        `indices`, whose generators must be independent; cached.

        A full-dimensional unimodular maximal cone's normals are its chart
        (chart_weights) and it has no equations; any other cone gets
        cone.halfspace_description, from one Hermite form of its transposed
        generators, which gives that same dual basis wherever both apply.
        """
        hit = self._description_cache.get(indices) if type(indices) is tuple else None
        if hit is not None:
            return hit
        idx = tuple(sorted(indices))
        if idx not in self._description_cache:
            weights = self.chart_weights(idx)
            if weights is not None:
                d = (weights, ())
            else:
                d = halfspace_description(self.generators(idx), self.ambient_dim)
            self._description_cache[idx] = d
        return self._description_cache[idx]

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return fans_equal(self, other)

    __hash__ = None

    def __repr__(self):
        return (f"Fan(dim={self.ambient_dim}, rays={self.ray_count}, "
                f"maximal={len(self.maximal_cones)})")


def make_fan(rays, maximal_cones, dim=None) -> Fan:
    return Fan(make_table(rays, dim), maximal_cones)


def fans_equal(a: Fan, b: Fan) -> bool:
    """Fan equality: same ray set and same maximal cones after the induced
    relabeling of ray indices."""
    if a.ambient_dim != b.ambient_dim or a.ray_count != b.ray_count:
        return False
    if set(a.rays) != set(b.rays):
        return False
    position = {ray: i for i, ray in enumerate(b.rays)}
    relabel = [position[ray] for ray in a.rays]
    remapped = {tuple(sorted(relabel[i] for i in c)) for c in a.maximal_cones}
    return remapped == set(b.maximal_cones)


@dataclass(frozen=True)
class Violation:
    axiom: str  # "intersection" | "unimodular"
    witness: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __str__(self):
        if self.ok:
            return "ok"
        lines = [f"{len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  [{v.axiom}] {v.witness}: {v.detail}")
        return "\n".join(lines)


def validate(f: Fan) -> ValidationReport:
    """Check the fan axioms and report every violation with a witness.

    A complete unimodular fan is recognised first by a wall certificate
    (see _wall_certificate) in O(m*n^2) integer operations; any other
    fan, or a complete one the certificate does not settle, goes to the
    pairwise checks of _pairwise_violations, which give the witnesses.
    """
    if _wall_certificate(f):
        return ValidationReport(ok=True, violations=())
    violations = _pairwise_violations(f)
    return ValidationReport(ok=not violations, violations=violations)


def _wall_certificate(f: Fan) -> bool:
    """Certificate that f is a complete fan of unimodular cones.

    It holds when (1) every maximal cone is full-dimensional with an
    integer dual basis (chart_weights), (2) every codimension-one cone
    (wall) is a facet of exactly two maximal cones c and d, (3) the rows
    of c and d dual to their rays outside the wall are not equal, and
    (4) the point p, the sum of the generators of the first maximal cone,
    lies in no other maximal cone.

    (3) says that c and d lie on opposite sides of the wall.  Both rows
    vanish on the wall's rays and pair to 1 with a ray completing them
    to a Z-basis, so each spans the integer annihilator of the wall and
    the two are equal or opposite: equal exactly when d's outside ray
    pairs to +1 with c's row, on c's side.  These are the weights a and
    -a of the invariant curve between adjacent fixed points.  (4) takes
    one sign per weight row until a negative one: p pairs to 1 with every
    row of the first cone, so it lies strictly inside it.

    Why it suffices: orient each cone so that it maps to R^n with
    positive orientation.  By (2) and (3) adjacent cones induce opposite
    orientations on their common wall, so the cones glued along their
    walls form a closed oriented pseudomanifold and its map to the unit
    sphere has a degree: the number of cones holding a point strictly
    inside, the same for every point on no wall.  By (4) p lies on no
    wall and in one cone, so the degree is 1.  Every point of the glued
    complex contributes a local degree of at least 1 to the degree at
    its image (its link is again such a pseudomanifold, mapped onto a
    sphere), so the map is a bijection: the cones cover R^n (complete)
    and distinct cones meet exactly in the cone over their common rays
    (the intersection axiom).  Unimodularity is (1).  So a certified fan
    has no violation, and validate need not look at any pair.
    Conversely every valid complete unimodular fan is certified: if
    another cone held p, which is inside the first cone, the two would
    not meet in a common face.
    """
    weights = f.charts
    if None in weights.values():
        return False
    if any(len(cones) != 2 for cones in f.facet_map.values()):
        return False
    for c, crossings in f._neighbours.items():
        rows = weights[c]
        for i, d, k in crossings:
            if rows[i] == weights[d][k]:
                return False
    p = [sum(col) for col in zip(*f.generators(f.maximal_cones[0]))]
    for rows in islice(weights.values(), 1, None):
        for row in rows:
            if sum(map(mul, row, p)) < 0:
                break
        else:
            return False
    return True


def _holding(incidence: dict[int, set[IndexSet]], c: IndexSet) -> bool:
    """Does some maximal face hold every vertex of c?  `incidence` maps
    each vertex to the maximal faces holding it.  Every complex has a
    maximal face, so the empty face is always held."""
    if not c:
        return True
    try:
        return bool(set.intersection(*[incidence[i] for i in c]))
    except KeyError:
        return False


def _cross_wall(rows, i: int, g: tuple, p: int):
    """Dual basis of the cone d across the wall of c opposite its i-th ray,
    from the dual basis `rows` of c; None when d is not unimodular.

    d trades c's i-th generator for g.  With alpha = rows * g, so that
    g = sum_k alpha_k g_k, |det G_d| = |alpha_i| |det G_c| = |alpha_i|.
    When alpha_i = +-1,
    B_i = alpha_i A_i pairs to 1 with g and to 0 with the other
    generators, and B_k = A_k - alpha_k B_i (k != i) pairs to 0 with g and
    keeps A_k's pairings with them.  The rows are returned in d's
    ascending ray order, B_i at g's position p.
    """
    a_i = sum(map(mul, rows[i], g))
    if a_i != 1 and a_i != -1:
        return None
    b_i = rows[i] if a_i == 1 else tuple([-x for x in rows[i]])
    out = []
    for k, row in enumerate(rows):
        if k != i:
            a_k = sum(map(mul, row, g))
            if a_k == -1:  # -1 and 1 are the usual values: rows added in C
                row = tuple(map(add, row, b_i))
            elif a_k == 1:
                row = tuple(map(sub, row, b_i))
            elif a_k:
                row = tuple([x - a_k * y for x, y in zip(row, b_i)])
            out.append(row)
    out.insert(p, b_i)
    return tuple(out)


def _pairwise_violations(f: Fan) -> tuple[Violation, ...]:
    """Every violation of the fan axioms, found pair by pair.

    Face closure holds by definition (a cone of the fan is any subset of
    a maximal cone), so it is not checked.
    Unimodularity is checked on the listed cones (faces of unimodular
    cones are unimodular), read off their cached descriptions (see
    cone.unimodular).  The intersection axiom is checked on pairs of
    listed cones, which suffices for simplicial fans: a pair passes at once
    when a linear functional separates the two cones along their common
    face (see _separated), and only the other pairs go to an exact
    double-description intersection of their cached descriptions.
    """
    violations = []
    independent = []
    for c in f.maximal_cones:
        try:
            description = f.description(c)
        except DependentGenerators:
            violations.append(
                Violation("unimodular", (c,), "generators are linearly dependent")
            )
            continue
        independent.append(c)
        if not unimodular(description, f.generators(c)):
            violations.append(
                Violation("unimodular", (c,), "generators are not part of a Z-basis")
            )
    for c, d in combinations(independent, 2):
        shared = set(c) & set(d)
        if _separated(f, c, d, shared) or _separated(f, d, c, shared):
            continue
        expected = set(f.generators(sorted(shared)))
        got = set(intersect_descriptions(f.description(c), f.description(d),
                                         f.ambient_dim))
        if got != expected:
            violations.append(
                Violation(
                    "intersection",
                    (c, d),
                    f"intersection has rays {sorted(got)}, "
                    f"common face has rays {sorted(expected)}",
                )
            )
    return tuple(violations)


def _separated(f: Fan, c: IndexSet, d: IndexSet, shared: set) -> bool:
    """Certificate that c and d meet exactly in the cone over `shared`.

    Let a be the sum of c's facet normals over its rays outside `shared`.
    On c, a is >= 0 and vanishes exactly on the shared face.  If a is < 0
    on every ray of d outside `shared`, then on d it is <= 0 and vanishes
    exactly on the shared face too, so the intersection is that face.
    """
    ineqs, _ = f.description(c)
    outside = [normal for i, normal in zip(c, ineqs) if i not in shared]
    a = [sum(col) for col in zip(*outside)]
    return all(lattice.dot(a, f.rays[j]) < 0 for j in d if j not in shared)


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """The simplicial complex on vertices 0..m-1 whose faces are the
    subsets of the sets in `family` (sorted tuples; none gives {()}).

    It keeps only its maximal faces, found once by scanning the family
    longest first and dropping a set when the incidence sets of its
    vertices meet (a kept, longer set holds it), and that incidence map
    from each vertex to the maximal faces holding it.  Equal maximal faces
    mean equal face closures, so equality compares only those.
    """

    vertex_count: int
    maximal_faces: tuple[IndexSet, ...]
    _incidence: dict[int, set[IndexSet]] = field(compare=False, repr=False)

    def __init__(self, vertex_count: int, family):
        family = sorted(set(family) or {()}, key=len, reverse=True)
        longest = len(family[0])
        maximal = []
        incidence: dict[int, set[IndexSet]] = {}
        for c in family:
            if len(c) < longest and _holding(incidence, c):
                continue
            for i in c:
                incidence.setdefault(i, set()).add(c)
            maximal.append(c)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "maximal_faces", tuple(sorted(maximal)))
        object.__setattr__(self, "_incidence", incidence)

    def __contains__(self, face) -> bool:
        """Are the vertices of `face` distinct and all in one maximal face?"""
        return len(set(face)) == len(face) and _holding(self._incidence, face)

    @cached_property
    def faces(self) -> frozenset[IndexSet]:
        """Every face as a sorted index set, all 2^k subsets of each
        maximal face of k vertices; built on first read."""
        return frozenset(s for c in self.maximal_faces
                         for k in range(len(c) + 1) for s in combinations(c, k))


def sigma(f: Fan) -> SimplicialComplex:
    """The abstract simplicial complex of the fan: I is a face iff the rays
    indexed by I span a cone.  The fan's own store of its cones, so O(1)."""
    return f._sigma


def support_contains(f: Fan, v):
    """The unique I with v in the relative interior of the cone over I,
    or None when v lies outside the support of the fan.

    v may have integer or Fraction entries; all arithmetic is exact.
    MalformedInput when v does not have ambient_dim entries.
    """
    if len(v) != f.ambient_dim:
        raise MalformedInput(f"expected {f.ambient_dim} entries, got {len(v)}")
    for c, weights in f.charts.items():
        if weights is not None:
            pairings = []
            for row in weights:
                p = sum(map(mul, row, v))
                if p < 0:
                    break
                pairings.append(p)
            else:
                return tuple(i for i, p in zip(c, pairings) if p > 0)
            continue
        stratum = _exact_contains(f, c, v)
        if stratum is not None:
            return stratum
    return None


def _exact_contains(f: Fan, c: IndexSet, v):
    """support_contains for one cone without a chart, by the signs of v's
    pairings with the cone's cached description."""
    p = facet_pairings(f.description(c), v)
    if p is not None and all(x >= 0 for x in p):
        return tuple(i for i, x in zip(c, p) if x > 0)
    return None


@dataclass(frozen=True)
class FacetReport:
    complete: bool
    pure: bool
    facet_counts: tuple[tuple[IndexSet, int], ...]
    undominated: tuple[IndexSet, ...]

    def __str__(self):
        lines = [f"complete: {self.complete}", f"pure: {self.pure}"]
        for c in self.undominated:
            lines.append(f"  cone {set(c) if c else '{}'} not contained in a full-dimensional cone")
        for facet, count in self.facet_counts:
            mark = "" if count == 2 else "  <-- expected 2"
            lines.append(f"  facet {set(facet) if facet else '{0}'}: {count} maximal cone(s){mark}")
        return "\n".join(lines)


def is_complete_facet(f: Fan) -> tuple[bool, FacetReport]:
    """Facet-pairing completeness test.

    A valid fan is complete iff it has at least one maximal cone, is pure
    of top dimension, and every codimension-one cone is a face of exactly
    two full-dimensional cones.  The counts come from `Fan.facet_map`, and
    the verdict is computed once per fan.
    """
    return f._facet_verdict


RAYCAST_BOUND = 97
RAYCAST_CHUNK = 2048  # samples classified together by _chart_cover


def is_complete_raycast(f: Fan, samples: int = 10000, seed: int = 0):
    """Monte-Carlo test of the completeness definition itself.

    Samples integer directions with entries uniform in [-B, B] (B = 97,
    zero vector rejected) and classifies each with exact arithmetic.
    Returns (True, None) when every sample lies in the support, else
    (False, witness) for the first sample outside it.  Deterministic for
    a given seed: the entries are the draws of
    random.Random(seed).randrange(-B, B + 1), n to a sample, and a zero
    sample is redrawn whole.  Those draws are the top bytes of
    getrandbits(32k).to_bytes(4k, "little") with the bytes >= 2B + 1
    deleted, which _sample_chunks reads in C.

    The samples are classified RAYCAST_CHUNK at a time.  _chart_cover
    finds those that some chart's weight rows all pair nonnegatively
    with, by exact big-integer arithmetic on packed fields of
    _field_width(charts) bytes: the least w with B * sum|a_k| < 2^(8w-1)
    for every weight row a.  Each coordinate column is packed and centred
    once, so a row costs one addition per nonzero entry (a product only
    for entries other than 1 and -1), and every field holds its pairing
    offset by 2^(8w-1) with no carry.  Each sample no chart covers is
    then tried, in order, on the cones without a chart by the exact test
    of support_contains.  The charts are read once per call, memory is
    bounded by the chunk, and an incomplete fan stops at the first chunk
    that holds a witness.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n = f.ambient_dim
    charts = [rows for rows in f.charts.values() if rows is not None]
    others = [c for c, rows in f.charts.items() if rows is None]
    width = _field_width(charts)
    for block in _sample_chunks(n, samples, seed):
        covered = _chart_cover(charts, block, n, width)
        s = covered.find(0)
        while s >= 0:
            v = tuple(b - RAYCAST_BOUND for b in block[s * n:(s + 1) * n])
            if all(_exact_contains(f, c, v) is None for c in others):
                return False, v
            s = covered.find(0, s + 1)
    return True, None


def _sample_chunks(n: int, samples: int, seed: int):
    """The raycast's samples, RAYCAST_CHUNK at a time (fewer in the last
    chunk), as bytes: n to a sample, entry b - B for byte b.

    randrange(-B, B + 1) takes the top byte of one 32-bit Mersenne
    Twister output and draws again while it is >= 2B + 1.  getrandbits(32k)
    is k such outputs in little-endian order, so its top bytes with the
    bytes >= 2B + 1 deleted are the same draws, made in C.  A sample of n
    bytes all equal to B is the zero vector; it is dropped, as a redraw of
    all n entries.
    """
    getrandbits = random.Random(seed).getrandbits
    reject = bytes(range(2 * RAYCAST_BOUND + 1, 256))
    zero = bytes([RAYCAST_BOUND]) * n
    pending = b""
    while samples > 0:
        want = min(samples, RAYCAST_CHUNK) * n
        chunk = b""
        while len(chunk) < want:
            short = want - len(chunk)
            while len(pending) < short:
                words = short * 4 // 3 + 16  # 195 of 256 top bytes are kept
                pending += getrandbits(32 * words).to_bytes(4 * words, "little")[3::4] \
                    .translate(None, reject)
            piece, pending = pending[:short], pending[short:]
            if zero in piece:
                piece = b"".join(piece[i:i + n] for i in range(0, short, n)
                                 if piece[i:i + n] != zero)
            chunk += piece
        samples -= want // n
        yield chunk


def _field_width(charts) -> int:
    """Bytes per packed sample: the least w with B * sum|a_k| < 2^(8w-1)
    for every weight row a, so that a pairing offset by 2^(8w-1) fills
    its field without carrying into the next."""
    bound = RAYCAST_BOUND * max(
        (sum(map(abs, row)) for rows in charts for row in rows), default=0)
    return bound.bit_length() // 8 + 1


def _chart_cover(charts, block: bytes, n: int, w: int) -> bytes:
    """One byte per sample of `block` (as _sample_chunks yields it): 0x80
    when the sample pairs nonnegatively with every weight row of some
    chart, 0 otherwise.

    Coordinate column j is packed with the byte of sample s in the w-byte
    field s and centred once: C_j = P_j - B * ONES, a signed-digit integer
    whose field s holds v_sj.  For a row a, HIGH + sum_j a_j C_j, with
    HIGH = 2^(8w-1) * ONES, holds <a, v_s> + 2^(8w-1) in field s.  That
    lies in [0, 2^(8w)) since |<a, v_s>| <= B sum|a_j| < 2^(8w-1) by
    _field_width, so no field carries into or borrows from the next, and
    the top bit of a field is set exactly when <a, v_s> >= 0.  A
    coefficient of 1 or -1 adds or subtracts the column with no product.
    The masks of those top bits are ANDed over a chart's rows and ORed
    over charts.
    """
    k = len(block) // n
    size = k * w
    ones = int.from_bytes(b"\x01".ljust(w, b"\x00") * k, "little")
    offset = RAYCAST_BOUND * ones
    columns = []
    for j in range(n):
        packed = bytearray(size)
        packed[::w] = block[j::n]
        columns.append(int.from_bytes(packed, "little") - offset)
    high = ones << (8 * w - 1)
    covered = 0
    for rows in charts:
        mask = high
        for row in rows:
            total = high
            for a, column in zip(row, columns):
                if a == 1:
                    total += column
                elif a == -1:
                    total -= column
                elif a:
                    total += a * column
            mask &= total
            if not mask:
                break
        covered |= mask
        if covered == high:
            break
    return covered.to_bytes(size, "little")[w - 1::w]


def star_subdivide(f: Fan, cone_indices) -> Fan:
    """Blow-up: replace a maximal cone by the cones joining its facets to
    the new ray at the (primitive) sum of its generators."""
    c = tuple(sorted(cone_indices))
    if c not in f.maximal_cones:
        raise NotMaximal(f"{set(c) if c else '{}'} is not a maximal cone")
    if len(c) < 2:
        raise DegenerateSubdivision(
            "star subdivision needs a cone with at least two generators"
        )
    try:
        new_ray = lattice.primitive(
            tuple(map(sum, zip(*f.generators(c))))
        )
    except ZeroVector:
        raise DegenerateSubdivision("generators sum to zero") from None
    if new_ray in set(f.rays):
        raise DegenerateSubdivision(f"sum ray {new_ray} already present")
    j = f.ray_count
    replacement = [tuple(sorted(set(c) - {i} | {j})) for i in c]
    maximal = [d for d in f.maximal_cones if d != c] + replacement
    return Fan(make_table(f.rays + (new_ray,), f.ambient_dim), maximal)
