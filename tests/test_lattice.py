import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_unimodular
from oracles import brute_extends_to_basis, perm_det
from toricfan import lattice
from toricfan.errors import NotUnimodular, ZeroVector

matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)



def _pad(rows, zero_rows, zero_cols):
    """rows with zero columns inserted before the given column positions
    and zero rows inserted before the given row positions."""
    out = []
    for r in rows:
        r = list(r)
        for j in sorted(zero_cols, reverse=True):
            r.insert(min(j, len(r)), 0)
        out.append(r)
    width = len(out[0])
    for i in sorted(zero_rows, reverse=True):
        out.insert(min(i, len(out)), [0] * width)
    return out


# rectangular matrices up to 6 x 6 with at least one zero row or column
padded_matrices = st.builds(
    _pad,
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=4)),
    st.lists(st.integers(0, 4), max_size=2),
    st.lists(st.integers(0, 4), max_size=2),
).filter(lambda m: not all(map(any, m)) or not all(map(any, zip(*m))))


def is_hnf_shape(h):
    pivots = []
    for row in h:
        cols = [j for j, x in enumerate(row) if x]
        pivots.append(cols[0] if cols else None)
    # zero rows at the bottom, pivot columns strictly increasing
    nonzero = [p for p in pivots if p is not None]
    assert nonzero == sorted(nonzero) and len(set(nonzero)) == len(nonzero)
    if any(p is None for p in pivots):
        first_zero = pivots.index(None)
        assert all(p is None for p in pivots[first_zero:])
    for r, p in enumerate(pivots):
        if p is None:
            continue
        assert h[r][p] > 0
        for above in range(r):
            assert 0 <= h[above][p] < h[r][p]
    return True


class TestPrimitive:
    def test_gcd_division(self):
        assert lattice.primitive((2, 4)) == (1, 2)

    def test_already_primitive(self):
        assert lattice.primitive((1, 0)) == (1, 0)

    def test_sign_preserved(self):
        # gcd is 3 and the direction must not flip
        assert lattice.primitive((-3, 6, -9)) == (-1, 2, -3)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            lattice.primitive((0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    def test_properties(self, entries):
        if not any(entries):
            return
        p = lattice.primitive(entries)
        from math import gcd
        g = gcd(*entries)
        assert gcd(*p) == 1
        assert tuple(x * g for x in p) == tuple(entries)


class TestHnf:
    def test_pinned_example(self):
        h, u = lattice.hnf([[2, 4], [1, 3]])
        assert lattice.mat_mul(u, ((2, 4), (1, 3))) == h
        assert lattice.det(u) in (1, -1)
        # canonical reduced form: entry above the pivot 2 lies in [0, 2)
        assert h == ((1, 1), (0, 2))

    def test_identity(self):
        h, u = lattice.hnf(lattice.identity(3))
        assert h == lattice.identity(3)
        assert u == lattice.identity(3)

    def test_row_swap(self):
        h, u = lattice.hnf([[0, 1], [1, 0]])
        assert h == lattice.identity(2)
        assert lattice.det(u) == -1

    @given(matrices)
    @settings(max_examples=150)
    def test_invariants(self, rows):
        m = lattice.mat(rows)
        h, u = lattice.hnf(m)
        assert lattice.mat_mul(u, m) == h
        assert lattice.det(u) in (1, -1)
        assert is_hnf_shape(h)

    @given(padded_matrices)
    @settings(max_examples=150)
    def test_invariants_with_zero_rows_and_columns(self, rows):
        m = lattice.mat(rows)
        h, u = lattice.hnf(m)
        assert len(h) == len(u) == len(m) and len(h[0]) == len(m[0])
        assert lattice.mat_mul(u, m) == h
        assert lattice.det(u) in (1, -1)
        assert is_hnf_shape(h)


class TestSnf:
    def test_pinned_example(self):
        s, u, v = lattice.snf([[2, 0], [0, 3]])
        assert s == ((1, 0), (0, 6))

    def test_identity(self):
        s, u, v = lattice.snf(lattice.identity(2))
        assert s == lattice.identity(2)

    def test_tall_matrix(self):
        s, _, _ = lattice.snf([[1, 0], [0, 1], [-1, -1]])
        assert s == ((1, 0), (0, 1), (0, 0))

    def test_divisibility_repair_is_followed_by_a_row_pass(self):
        # the Hermite passes leave diag(2, 9) here; repairing the chain and
        # then taking a column pass would undo the repair and never end
        assert lattice.snf(((-2, 5), (0, -9), (4, 8)))[0] == ((1, 0), (0, 18), (0, 0))

    @given(st.one_of(matrices, padded_matrices))
    @settings(max_examples=150)
    def test_invariants(self, rows):
        m = lattice.mat(rows)
        s, u, v = lattice.snf(m)
        assert lattice.mat_mul(lattice.mat_mul(u, m), v) == s
        assert lattice.det(u) in (1, -1)
        assert lattice.det(v) in (1, -1)
        k = min(len(s), len(s[0]))
        diag = [s[i][i] for i in range(k)]
        for i, row in enumerate(s):
            for j, x in enumerate(row):
                assert x == 0 or i == j
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


class TestDualBasis:
    def test_standard(self):
        assert lattice.dual_basis(((1, 0), (0, 1))) == ((1, 0), (0, 1))

    def test_pinned_pair(self):
        assert lattice.dual_basis(((0, 1), (-1, -1))) == ((-1, 1), (-1, 0))

    def test_pinned_pair_other_chart(self):
        assert lattice.dual_basis(((-1, -1), (1, 0))) == ((0, -1), (1, -1))

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            lattice.dual_basis(((1, 0), (1, 2)))

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=80)
    def test_pairing_and_round_trip(self, n, seed):
        g = random_unimodular(n, random.Random(seed))
        a = lattice.dual_basis(g)
        assert lattice.mat_mul(a, lattice.transpose(g)) == lattice.identity(n)
        assert lattice.dual_basis(a) == g

    @given(st.integers(1, 8), st.integers(0, 10 ** 6), st.integers(0, 30))
    @settings(max_examples=80)
    def test_pairing_up_to_dimension_eight(self, n, seed, ops):
        g = random_unimodular(n, random.Random(seed), ops=ops)
        a = lattice.dual_basis(g)
        assert lattice.mat_mul(a, lattice.transpose(g)) == lattice.identity(n)

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=200)
    def test_rejects_exactly_when_det_is_not_a_unit(self, rows):
        d = abs(perm_det(rows))
        if d != 1:
            with pytest.raises(NotUnimodular, match=rf"^\|det\| = {d}, expected 1$"):
                lattice.dual_basis(rows)
        else:
            a = lattice.dual_basis(rows)
            assert lattice.mat_mul(a, lattice.transpose(rows)) == lattice.identity(len(rows))

    def test_rejects_singular_and_non_square(self):
        with pytest.raises(NotUnimodular):
            lattice.dual_basis(((1, 2), (2, 4)))
        with pytest.raises(ValueError):
            lattice.dual_basis(((1, 0, 0), (0, 1, 0)))

    def test_check_survives_optimized_mode(self):
        # python -O strips assert statements; the unimodularity check must
        # raise regardless
        code = (
            "from toricfan import lattice\n"
            "from toricfan.errors import NotUnimodular\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "for g in (((1, 0), (1, 2)), ((1, 2), (2, 4)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))):\n"
            "    try:\n"
            "        lattice.dual_basis(g)\n"
            "    except NotUnimodular:\n"
            "        continue\n"
            "    raise SystemExit(f'no NotUnimodular for {g}')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(lattice.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestIsPartOfBasis:
    def test_coprime_row(self):
        assert lattice.is_part_of_basis([(2, 3)]) is True

    def test_non_primitive_row(self):
        assert lattice.is_part_of_basis([(2, 4)]) is False

    def test_index_two_pair(self):
        assert lattice.is_part_of_basis([(1, 0), (1, 2)]) is False

    def test_too_many_rows(self):
        assert lattice.is_part_of_basis([(1, 0), (0, 1), (1, 1)]) is False

    CASES = [
        [(2, 3)],
        [(2, 4)],
        [(1, 0), (1, 2)],
        [(0, 1)],
        [(3, 5)],
        [(1, 1), (0, 1)],
        [(2, 1), (1, 1)],
        [(2, 2)],
        [(1, 2, 3)],
        [(2, 4, 6)],
        [(1, 0, 0), (0, 1, 0)],
        [(1, 2, 2), (0, 1, 1)],
        [(0, 2, 1), (1, 1, 1)],
        [(2, 0, 0), (0, 1, 0)],
        [(1, 1, 0), (1, -1, 0)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 2)],
        [(1, 0, 0), (0, 1, 1), (0, 1, -1)],
        [(2, 1, 0), (1, 1, 0), (0, 0, 1)],
    ]

    @pytest.mark.parametrize("rows", CASES)
    def test_against_brute_force_extension_search(self, rows):
        n = len(rows[0])
        assert lattice.is_part_of_basis(rows) == brute_extends_to_basis(rows, n)


class TestDet:
    @given(st.integers(1, 4), st.data())
    @settings(max_examples=100)
    def test_matches_permutation_expansion(self, n, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        assert lattice.det(rows) == perm_det(rows)


class TestIntegralEntries:
    """Non-integral entries are rejected, never truncated."""

    @pytest.mark.parametrize("call", [
        lambda: lattice.vec((1, 2.5)),
        lambda: lattice.primitive((2.7, 0)),
        lambda: lattice.det(((2, 0), (0, Fraction(1, 2)))),
        lambda: lattice.mat(((1, 0), (0.5, 1))),
        lambda: lattice.dual_basis(((1, 0), (0, 1.0000001))),
        lambda: lattice.hnf(((1, "2"),)),
        lambda: lattice.vec(("3",)),
    ])
    def test_non_integral_raises(self, call):
        with pytest.raises(ValueError):
            call()

    def test_integral_values_are_converted(self):
        assert lattice.det(((2.0, 0), (0, Fraction(4, 2)))) == 4
        assert lattice.primitive((4.0, Fraction(6))) == (2, 3)
        v = lattice.vec((1.0, True, Fraction(-3, 1)))
        assert v == (1, 1, -3) and all(type(x) is int for x in v)

    @given(matrices)
    @settings(max_examples=50)
    def test_int_rows_pass_unchanged(self, rows):
        m = lattice.mat(rows)
        assert m == tuple(map(tuple, rows))
        assert all(type(x) is int for r in m for x in r)
        assert lattice.mat(iter(map(iter, rows))) == m

    def test_ragged_matrix(self):
        with pytest.raises(ValueError, match="ragged"):
            lattice.mat(((1, 0), (1,)))


class TestReturnedRows:
    @given(matrices)
    @settings(max_examples=50)
    def test_hnf_and_snf_rows_are_int_tuples(self, rows):
        for m in lattice.hnf(rows) + lattice.snf(rows):
            assert type(m) is tuple
            assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m)


class TestKernel:
    @given(matrices)
    @settings(max_examples=150)
    def test_one_smith_form_gives_kernel_and_factors(self, rows):
        kernel, factors = lattice.kernel_and_invariant_factors(rows)
        assert kernel == lattice.integer_kernel_basis(rows)
        assert factors == lattice.invariant_factors(rows)
        assert factors == lattice.invariant_factors(lattice.transpose(rows))

    def test_integer_kernel_is_saturated(self):
        basis = lattice.integer_kernel_basis(((1, 1, 1),))
        assert len(basis) == 2
        for k in basis:
            assert sum(k) == 0
        assert all(f == 1 for f in lattice.invariant_factors(basis))

    def test_trivial_kernel(self):
        assert lattice.integer_kernel_basis(lattice.identity(3)) == ()

    @given(st.one_of(matrices, padded_matrices))
    @settings(max_examples=150)
    def test_kernel_basis_is_its_own_hermite_form_and_saturated(self, rows):
        m = lattice.mat(rows)
        basis = lattice.integer_kernel_basis(m)
        assert len(basis) == len(m[0]) - lattice.rational_rank(m)
        assert all(lattice.mat_vec(m, x) == (0,) * len(m) for x in basis)
        if basis:
            assert lattice.hnf(basis)[0] == basis
            assert lattice.is_part_of_basis(basis)
