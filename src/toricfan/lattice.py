"""Exact integer linear algebra over Z^n.

Vectors are tuples of Python ints and matrices are tuples of row vectors,
so all arithmetic is arbitrary precision.  Every function is pure and
returns fresh immutable values; nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import add

from .errors import NotUnimodular, ZeroVector

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


_INT = frozenset((int,))


def vec(entries) -> Vector:
    """The entries as a tuple of ints.  Integral values of other numeric
    types (2.0, Fraction(4, 2)) are converted; any other entry raises
    ValueError, never truncated.  A tuple of ints is returned as it is,
    after one type scan in C."""
    v = tuple(entries)
    if set(map(type, v)) <= _INT:
        return v
    ints = tuple(map(int, v))
    if ints != v:
        raise ValueError(f"non-integral entry in {v}")
    return ints


def mat(rows) -> Matrix:
    """The rows as a tuple of vectors (see vec); ValueError when ragged."""
    m = tuple(map(tuple, rows))
    if m and len(set(map(len, m))) != 1:
        raise ValueError("ragged matrix")
    if set(map(type, chain.from_iterable(m))) <= _INT:
        return m
    return tuple(map(vec, m))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_vec(m: Matrix, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, c) for c in cols) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def identity(n: int) -> Matrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def primitive(v) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries.

    The result points in the same direction (the sign is never flipped).
    """
    v = vec(v)
    g = gcd(*v) if v else 0
    if g == 0:
        raise ZeroVector(f"cannot normalize the zero vector {v}")
    return tuple(x // g for x in v)


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _row_combine(w, i, j, col):
    """Unimodular row operation putting gcd(w[i][col], w[j][col]) at (i, col)
    and 0 at (j, col), on whole rows, so on any transform they carry.
    w[j][col] must be nonzero."""
    a, b = w[i][col], w[j][col]
    if a == 0:
        w[i], w[j] = w[j], [-x for x in w[i]]
        return
    if b % a == 0:
        # plain elimination keeps the pivot row untouched (no fill-in)
        q = b // a
        w[j] = [t - q * s for s, t in zip(w[i], w[j])]
        return
    g, x, y = _xgcd(a, b)
    p, q = -(b // g), a // g  # second row of the 2x2 transform, det = +1
    w[i], w[j] = (
        [x * s + y * t for s, t in zip(w[i], w[j])],
        [p * s + q * t for s, t in zip(w[i], w[j])],
    )


def hnf(m) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U*m, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    """
    return _hnf(mat(m))


def _hnf(m: Matrix, carry: Matrix | None = None) -> tuple[Matrix, Matrix]:
    """hnf of a matrix already in Matrix form, the one integer elimination
    of the package.  Each work row is a row of m followed by the same row
    of `carry` (the identity by default), so every row operation applies
    to both: the work matrix ends as [H | U*carry]."""
    if not m:
        raise ValueError("empty matrix")
    nrows, ncols = len(m), len(m[0])
    w = [[*r, *e] for r, e in zip(m, identity(nrows) if carry is None else carry)]
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        for i in range(row + 1, nrows):
            if w[i][col]:
                _row_combine(w, row, i, col)
        if w[row][col] == 0:
            continue
        if w[row][col] < 0:
            w[row] = [-x for x in w[row]]
        pivot = w[row][col]
        for i in range(row):
            q = w[i][col] // pivot
            if q:
                w[i] = [s - q * t for s, t in zip(w[i], w[row])]
        row += 1
    return tuple(tuple(r[:ncols]) for r in w), tuple(tuple(r[ncols:]) for r in w)


def snf(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (S, U, V) with S = U*m*V diagonal, nonnegative, with the
    divisibility chain d1 | d2 | ..., and U, V unimodular.  Built from
    Hermite forms alone (Kannan and Bachem, SIAM J. Comput. 8, 1979):
    row passes _hnf(S, U) alternate with column passes, Hermite forms of
    S^T carrying V^T, until S is diagonal.  A d_t that does not divide a
    later d_j is repaired by adding column j to column t; a row pass must
    follow, since a column pass would clear column t again.
    """
    s, u = _hnf(mat(m))
    vt = identity(len(s[0]))
    row_pass = False
    while True:
        if any(x for i, r in enumerate(s) for j, x in enumerate(r) if i != j):
            if row_pass:
                s, u = _hnf(s, u)
            else:
                st, vt = _hnf(transpose(s), vt)
                s = transpose(st)
            row_pass = not row_pass
            continue
        d = _diagonal(s)
        bad = next(((t, j) for t in range(len(d)) for j in range(t + 1, len(d))
                    if d[j] % d[t]), None)
        if bad is None:
            return s, u, transpose(vt)
        t, j = bad
        s = tuple(r[:t] + (r[t] + r[j],) + r[t + 1:] for r in s)
        vt = tuple(r if i != t else tuple(map(add, r, vt[j])) for i, r in enumerate(vt))
        row_pass = True


def invariant_factors(m) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form, in chain order."""
    s, _, _ = snf(m)
    return _diagonal(s)


def _diagonal(s: Matrix) -> tuple[int, ...]:
    k = min(len(s), len(s[0]))
    return tuple(s[i][i] for i in range(k) if s[i][i])


def det(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    m = mat(m)
    n = len(m)
    if n == 0 or len(m[0]) != n:
        raise ValueError("determinant needs a square nonempty matrix")
    w = list(map(list, m))
    sign = 1
    prev = 1
    for t in range(n - 1):
        if w[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if w[i][t]), None)
            if swap is None:
                return 0
            w[t], w[swap] = w[swap], w[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                w[i][j] = (w[i][j] * w[t][t] - w[i][t] * w[t][j]) // prev
            w[i][t] = 0
        prev = w[t][t]
    return sign * w[n - 1][n - 1]


def dual_basis(g) -> Matrix:
    """Rows A_i with <A_i, G_j> = delta_ij for a unimodular square G.

    Integer arithmetic only: the Hermite form of G^T is U*G^T with U
    unimodular, and it is the identity exactly when G is unimodular; then
    U*G^T = I, so U itself is A.  A square Hermite form is the identity
    when its diagonal is all ones: a nonzero (t, t) entry for every t
    puts each pivot on the diagonal, and the entries above a pivot of 1
    are reduced to 0.  That form is upper triangular, so the product of
    its diagonal is the |det G^T| = |det G| that NotUnimodular reports.
    """
    g = mat(g)
    n = len(g)
    if n == 0 or len(g[0]) != n:
        raise ValueError("dual basis needs a square nonempty matrix")
    h, u = _hnf(transpose(g))
    if any(h[t][t] != 1 for t in range(n)):
        raise NotUnimodular(f"|det| = {prod(h[t][t] for t in range(n))}, expected 1")
    return u


def is_part_of_basis(g) -> bool:
    """Do the rows of g extend to a Z-basis of Z^n?

    True iff the k x k top of the Hermite form of g^T has all ones on its
    diagonal, as in dual_basis: the product of that diagonal is the gcd of
    g's k x k minors, and 0 when g's rank is below k.
    """
    g = mat(g)
    if not g:
        return True
    k = len(g)
    if k > len(g[0]):
        return False
    h, _ = _hnf(transpose(g))
    return all(h[t][t] == 1 for t in range(k))


# --- exact rational elimination ----------------------------------------------
# One Gauss-Jordan pass behind three public names.  No other module of the
# package calls them: cones and fans are described by the integer forms above.


def _rref(rows):
    """Reduced row echelon form over Q: (w, pivots), w the rows as lists of
    Fractions and pivots[r] the column of row r's leading 1."""
    w = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(w[0]) if w else 0):
        row = len(pivots)
        piv = next((i for i in range(row, len(w)) if w[i][col]), None)
        if piv is None:
            continue
        w[row], w[piv] = w[piv], w[row]
        f = w[row][col]
        w[row] = [x / f for x in w[row]]
        for i in range(len(w)):
            if i != row and w[i][col]:
                g = w[i][col]
                w[i] = [x - g * y for x, y in zip(w[i], w[row])]
        pivots.append(col)
    return w, pivots


def rational_rank(rows) -> int:
    """Rank over Q of a list of vectors."""
    return len(_rref(rows)[1])


def solve_combination(vectors, target):
    """Coefficients a with sum a_i * vectors[i] = target, or None.

    The vectors must be linearly independent; entries may be ints or
    Fractions.  Returns a tuple of Fractions when target is in the span.
    """
    k = len(vectors)
    w, pivots = _rref([[v[i] for v in vectors] + [t] for i, t in enumerate(target)])
    if pivots[:k] != list(range(k)):
        raise ValueError("dependent vectors in solve_combination")
    if len(pivots) > k:
        return None
    return tuple(w[j][k] for j in range(k))


def rational_kernel(m) -> tuple[Vector, ...]:
    """Primitive integer basis of { x : m x = 0 } over Q."""
    w, pivots = _rref(m)
    if not w:
        raise ValueError("empty matrix")
    ncols = len(w[0])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, col in enumerate(pivots):
            x[col] = -w[r][free]
        basis.append(clear_denominators(x))
    return tuple(basis)


def integer_kernel_basis(m) -> tuple[Vector, ...]:
    """Basis of the integer kernel { x in Z^c : m x = 0 } in Hermite
    normal form, so independent of the elimination.

    With H = U*m^T, the rows of U past m's rank are a basis of the kernel,
    spanning a saturated sublattice since U is unimodular.
    """
    h, u = _hnf(transpose(mat(m)))
    r = sum(1 for row in h if any(row))
    return _hnf(u[r:])[0] if r < len(u) else ()


def kernel_and_invariant_factors(m) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """integer_kernel_basis(m) and invariant_factors(m), which are also
    the invariant factors of m's transpose."""
    return integer_kernel_basis(m), invariant_factors(m)


def clear_denominators(x) -> Vector:
    """Scale a rational vector to a primitive integer vector, same direction."""
    fr = [Fraction(t) for t in x]
    mult = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * mult) for f in fr]
    return primitive(ints)
