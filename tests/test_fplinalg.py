import random

import pytest

from synlab.errors import InputError
from synlab.fplinalg import (
    FpMatrix,
    VectorSpan,
    is_prime,
    kernel_basis,
    rank,
    subquotient,
)


def mat(p, rows):
    entries = {(i, j): v % p for i, row in enumerate(rows) for j, v in enumerate(row) if v % p}
    return FpMatrix(p, len(rows), len(rows[0]), entries)


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
    assert m.mul_vec(v) == (0, 0)
    # proportional to (3, 1)
    assert (v[0] * 1 - v[1] * 3) % 5 == 0 and any(v)


def test_subquotient_trivial():
    assert subquotient([(1, 0)], [(1, 0)], 3, 2) == []


def test_subquotient_full():
    assert len(subquotient([(1, 0), (0, 1)], [], 3, 2)) == 2


def test_subquotient_representative_reduced():
    # one representative, congruent to e2 mod the denominator
    assert subquotient([(1, 0), (1, 1)], [(1, 0)], 5, 2) == [(0, 1)]


def test_subquotient_containment_enforced():
    with pytest.raises(InputError):
        subquotient([(1, 0)], [(0, 1)], 3, 2)


def test_compose_and_zero():
    a = mat(3, [[1, 2], [0, 1]])
    b = mat(3, [[2, 0], [1, 1]])
    ab = mat(3, [[1, 2], [1, 1]])  # a @ b by hand: [[4, 2], [1, 1]] mod 3
    for v in [(1, 0), (0, 1), (2, 2)]:
        assert a.mul_vec(b.mul_vec(v)) == ab.mul_vec(v)
    nil = mat(3, [[0, 1], [0, 0]])
    for v in [(1, 0), (0, 1), (2, 2)]:
        assert nil.mul_vec(nil.mul_vec(v)) == (0, 0)


def random_matrix(rng, p, rows, cols, density=0.4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randrange(1, p)
                entries[(i, j)] = v
    return FpMatrix(p, rows, cols, entries)


def test_rank_nullity_and_annihilation_randomized():
    rng = random.Random(11)
    for trial in range(60):
        p = rng.choice([2, 3, 5])
        # every tenth trial is wider (up to 90 columns) and sparser
        hi = 90 if trial % 10 == 0 else 50
        rows, cols = rng.randint(1, hi), rng.randint(1, hi)
        m = random_matrix(rng, p, rows, cols, density=0.15 if hi > 50 else 0.4)
        ker = kernel_basis(m)
        assert len(ker) + rank(m) == cols
        for v in ker:
            assert not any(m.mul_vec(v))


def test_subquotient_rank_arithmetic_randomized():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        dim = rng.randint(1, 30)
        vecs = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randint(1, 12))]
        num_span = VectorSpan(p, dim, vecs)
        # denominator: random combinations of the numerator
        den = []
        for _ in range(rng.randint(0, 6)):
            coeffs = [rng.randrange(p) for _ in vecs]
            combo = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) % p for i in range(dim))
            den.append(combo)
        reps = subquotient(vecs, den, p, dim)
        assert len(reps) == num_span.rank - VectorSpan(p, dim, den).rank
        for r in reps:
            assert num_span.contains(r)
