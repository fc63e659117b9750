import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab.errors import InputError
from synlab.fplinalg import (
    FpMatrix,
    VectorSpan,
    _residues,
    is_prime,
    kernel_basis,
    rank,
    subquotient,
)


def mat(p, rows):
    entries = {(i, j): v % p for i, row in enumerate(rows) for j, v in enumerate(row) if v % p}
    return FpMatrix(p, len(rows), len(rows[0]), entries)


def mul_vec(m, v) -> dict:
    """The sparse vector m*v; a column of v outside the matrix raises
    InputError."""
    v = _residues(v, m.p, m.cols)
    out: dict = {}
    for (r, c), a in m.entries.items():
        x = v.get(c)
        if x:
            out[r] = out.get(r, 0) + a * x
    return _residues(out, m.p, m.rows)


def test_prime_checked():
    with pytest.raises(InputError):
        FpMatrix(4, 1, 1, {})
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


def test_kernel_identity_trivial():
    assert kernel_basis(mat(3, [[1, 0], [0, 1]])) == []


def test_kernel_zero_map():
    basis = kernel_basis(mat(3, [[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_kernel_rank_one_f5():
    m = mat(5, [[1, 2], [2, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert mul_vec(m, v) == {}
    # proportional to (3, 1)
    assert v and (v.get(0, 0) * 1 - v.get(1, 0) * 3) % 5 == 0


def test_subquotient_trivial():
    assert subquotient([{0: 1}], [{0: 1}], VectorSpan(3, 2)) == []


def test_subquotient_full():
    assert len(subquotient([{0: 1}, {1: 1}], [], VectorSpan(3, 2))) == 2


def test_subquotient_representative_reduced():
    # one representative, congruent to e2 mod the denominator
    assert subquotient([{0: 1}, {0: 1, 1: 1}], [{0: 1}], VectorSpan(5, 2)) == [{1: 1}]


def test_subquotient_containment_enforced():
    with pytest.raises(InputError):
        subquotient([{0: 1}], [{1: 1}], VectorSpan(3, 2))


def test_compose_and_zero():
    a = mat(3, [[1, 2], [0, 1]])
    b = mat(3, [[2, 0], [1, 1]])
    ab = mat(3, [[1, 2], [1, 1]])  # a @ b by hand: [[4, 2], [1, 1]] mod 3
    for v in [{0: 1}, {1: 1}, {0: 2, 1: 2}]:
        assert mul_vec(a, mul_vec(b, v)) == mul_vec(ab, v)
    nil = mat(3, [[0, 1], [0, 0]])
    for v in [{0: 1}, {1: 1}, {0: 2, 1: 2}]:
        assert mul_vec(nil, mul_vec(nil, v)) == {}


def test_vector_columns_checked_and_zero_residues_never_stored():
    span = VectorSpan(5, 3)
    for bad in ({3: 1}, {-1: 1}, {0: 1, 7: 0}):
        for op in (span.add, span.reduce, span.contains):
            with pytest.raises(InputError, match="outside ambient dim 3"):
                op(bad)
        with pytest.raises(InputError, match="outside ambient dim 3"):
            mul_vec(mat(5, [[1, 0, 0]]), bad)
    assert span.reduce({0: 5, 1: 7, 2: -1}) == {1: 2, 2: 4}
    assert not span.add({1: 10}) and span.rank == 0
    assert span.add({0: 2, 1: 5, 2: 4})
    assert span.basis() == [{0: 1, 2: 2}]
    assert span.reduce({0: 1, 2: 2}) == {}
    assert mul_vec(mat(5, [[1, 1, 0]]), {0: 1, 1: 4}) == {}


# The property tests draw the shape, density and seed of a random matrix
# or vector list; hypothesis shrinks those and reports them on a failure.
PRIMES = st.sampled_from([2, 3, 5])
SEEDS = st.integers(0, 2**32 - 1)


def random_vectors(seed, p, count, dim, density):
    rng = random.Random(seed)
    return [{j: rng.randrange(1, p) for j in range(dim) if rng.random() < density} for _ in range(count)]


def random_combinations(seed, p, vecs, count):
    """count random F_p-combinations of vecs, entries not yet reduced."""
    rng = random.Random(seed)
    combos = []
    for _ in range(count):
        combo = {}
        for v in vecs:
            c = rng.randrange(p)
            for j, x in v.items():
                combo[j] = combo.get(j, 0) + c * x
        combos.append(combo)
    return combos


@st.composite
def matrices(draw):
    p = draw(PRIMES)
    # wide (up to 90 columns) and sparse, or up to 50 and denser
    hi, density = draw(st.sampled_from([(90, 0.15), (50, 0.4)]))
    rows, cols = draw(st.integers(1, hi)), draw(st.integers(1, hi))
    entries = {(i, j): v for i, row in enumerate(random_vectors(draw(SEEDS), p, rows, cols, density)) for j, v in row.items()}
    return FpMatrix(p, rows, cols, entries)


@st.composite
def matrices_with_zero_columns(draw):
    m = draw(matrices())
    zero = set(draw(st.lists(st.integers(0, m.cols - 1), max_size=m.cols)))
    return FpMatrix(m.p, m.rows, m.cols, {(r, c): v for (r, c), v in m.entries.items() if c not in zero})


def reference_kernel_basis(m):
    """The kernel read off the reduced row echelon form of m.

    The vector of free column f is e_f minus, for each pivot row with an
    entry at f, that entry at the row's pivot.
    """
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    pivot_rows = {min(row): row for row in VectorSpan(m.p, m.cols, [rows[r] for r in sorted(rows)]).basis()}
    at_free: dict = {}  # free col -> {pivot: -entry}
    for piv in sorted(pivot_rows):
        for j, v in pivot_rows[piv].items():
            if j != piv:
                at_free.setdefault(j, {})[piv] = m.p - v
    basis = []
    for f in range(m.cols):
        if f not in pivot_rows:
            vec = {f: 1}
            vec.update(at_free.get(f, ()))
            basis.append(vec)
    return basis


@settings(max_examples=120, derandomize=True)
@given(st.one_of(matrices(), matrices_with_zero_columns()))
def test_kernel_basis_is_the_free_column_basis(m):
    """The dense engine's labels read this form, vector for vector."""
    ker = kernel_basis(m)
    assert ker == reference_kernel_basis(m)
    # each vector's last nonzero column is its free column, where it holds 1,
    # and it holds 0 at every other free column
    free = [max(v) for v in ker]
    assert free == sorted(set(free))
    for v, f in zip(ker, free):
        assert v[f] == 1 and all(0 < x < m.p for x in v.values())
        assert not set(v) & (set(free) - {f})


@settings(max_examples=60)
@given(matrices())
def test_rank_nullity_and_annihilation_randomized(m):
    ker = kernel_basis(m)
    assert len(ker) + rank(m) == m.cols
    for v in ker:
        assert mul_vec(m, v) == {}


@settings(max_examples=60)
@given(PRIMES, st.integers(1, 30), st.integers(1, 12), st.integers(0, 6), st.sampled_from([0.2, 0.6, 1.0]), SEEDS)
def test_subquotient_rank_arithmetic_randomized(p, dim, count, den_count, density, seed):
    vecs = random_vectors(seed, p, count, dim, density)
    num_span = VectorSpan(p, dim, vecs)
    den = random_combinations(seed + 1, p, vecs, den_count)
    reps = subquotient(vecs, den, VectorSpan(p, dim))
    assert len(reps) == num_span.rank - VectorSpan(p, dim, den).rank
    for r in reps:
        assert num_span.contains(r)


@settings(max_examples=60)
@given(PRIMES, st.integers(2, 30), st.integers(0, 6), st.sampled_from([0.2, 0.6, 1.0]), SEEDS)
def test_subquotient_refuses_a_denominator_outside_the_numerator(p, dim, den_count, density, seed):
    rng = random.Random(seed)
    vecs = random_vectors(seed, p, rng.randrange(1, dim), dim, density)
    num_span = VectorSpan(p, dim, vecs)
    # fewer vectors than columns, so some unit vector lies outside their span
    out = next(j for j in range(dim) if not num_span.contains({j: 1}))
    den = random_combinations(seed + 1, p, vecs, den_count)
    assert len(subquotient(vecs, den, VectorSpan(p, dim))) == num_span.rank - VectorSpan(p, dim, den).rank
    stray = random_combinations(seed + 2, p, vecs, 1)[0]
    stray[out] = stray.get(out, 0) + rng.randrange(1, p)
    den.insert(rng.randrange(len(den) + 1), stray)
    with pytest.raises(InputError, match="^denominator not contained in numerator span$"):
        subquotient(vecs, den, VectorSpan(p, dim))


@settings(max_examples=60)
@given(PRIMES, st.integers(1, 90), st.integers(1, 40), st.sampled_from([0.05, 0.3]), SEEDS, st.randoms(use_true_random=False))
def test_span_basis_is_independent_of_insertion_order(p, dim, count, density, seed, shuffler):
    """The dense engine's labels read the canonical reduced echelon form."""
    vecs = random_vectors(seed, p, count, dim, density)
    basis = VectorSpan(p, dim, vecs).basis()
    shuffler.shuffle(vecs)
    assert VectorSpan(p, dim, vecs).basis() == basis
    # each row has a 1 at its pivot, the first nonzero column, and 0 at every other pivot
    pivots = [min(row) for row in basis]
    assert pivots == sorted(set(pivots))
    for row, piv in zip(basis, pivots):
        assert row[piv] == 1 and all(0 < x < p for x in row.values())
        assert not set(row) & (set(pivots) - {piv})


@settings(max_examples=100, derandomize=True)
@given(PRIMES, st.integers(1, 40), st.integers(0, 15), st.integers(1, 25), st.sampled_from([0.1, 0.4]), SEEDS)
def test_extend_on_a_span_with_rows_is_the_kernel_modulo_those_rows(p, dim, held, count, density, seed):
    """extend eliminates each vector once against the rows a span already
    holds: its kernel is kernel_basis of the vectors reduced modulo those
    rows, and the span ends as if they were added one by one."""
    rng = random.Random(seed)
    rows = random_vectors(seed + 1, p, held, dim, density)
    vecs = random_vectors(seed + 2, p, count, dim, density)
    for i in range(count):
        # some vectors lie in the held span or depend on earlier ones
        pool = rows if rng.random() < 0.5 else vecs[:i]
        if pool and rng.random() < 0.4:
            vecs[i] = random_combinations(rng.randrange(2**32), p, pool, 1)[0]
    held_span = VectorSpan(p, dim, rows)
    reduced = [held_span.reduce(v) for v in vecs]
    want = kernel_basis(FpMatrix(p, dim, count, {(i, j): x for j, col in enumerate(reduced) for i, x in col.items()}))
    one_by_one = VectorSpan(p, dim, rows)
    for v in vecs:
        one_by_one.add(v)

    assert held_span.extend(vecs) == want
    assert held_span.basis() == one_by_one.basis()


def test_subquotient_leaves_its_base_span_unchanged():
    base = VectorSpan(5, 3, [{0: 1, 2: 1}])
    assert subquotient([{0: 1, 2: 1}, {1: 1}, {2: 1}], [{1: 1, 2: 3}], base) == [{2: 2}]
    assert base.basis() == [{0: 1, 2: 1}]
