import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab import fplinalg
from synlab.errors import InputError
from synlab.fplinalg import (
    MR_LIMIT,
    FpMatrix,
    VectorSpan,
    _subtract,
    is_prime,
    kernel_basis,
    rank,
    subquotient,
)


def _residues(vec, p: int, dim: int) -> dict:
    """A fresh sparse row of vec mod p; a column outside [0, dim) raises."""
    row = {}
    for c, v in vec.items():
        if not 0 <= c < dim:
            raise InputError(f"column {c} outside ambient dim {dim}")
        v %= p
        if v:
            row[c] = v
    return row


class ReferenceSpan(VectorSpan):
    """VectorSpan as it reduced a vector in two passes, residues first and
    then the pivots they hit, with the full body of every method that
    reduces or inserts: the reference for the one-pass reduction."""

    def _reduce_row(self, vec) -> dict:
        p = self.p
        row = _residues(vec, p, self.dim)
        rows = self._rows
        for piv, c in [(j, v) for j, v in row.items() if j in rows]:
            _subtract(row, c, rows[piv], p)
        return row

    def reduce(self, vec) -> dict:
        return self._reduce_row(vec)

    def contains(self, vec) -> bool:
        return not self._reduce_row(vec)

    def add(self, vec) -> bool:
        row = self._reduce_row(vec)
        if row:
            self._insert(row)
        return bool(row)

    def extend(self, vectors) -> list:
        p = self.p
        rows = self._rows
        combos: dict = {}
        kernel = []
        for f, vec in enumerate(vectors):
            row = _residues(vec, p, self.dim)
            if not row:
                kernel.append({f: 1})
                continue
            combo = {f: 1}
            for piv, c in [(j, v) for j, v in row.items() if j in rows]:
                _subtract(row, c, rows[piv], p)
                if piv in combos:
                    _subtract(combo, c, combos[piv], p)
            if row:
                self._insert(row, combo, combos)
            else:
                kernel.append(combo)
        return kernel

    def _insert(self, row: dict, combo=None, combos=None) -> None:
        p = self.p
        piv = min(row)
        inv = pow(row[piv], -1, p)
        if inv != 1:
            row = {j: v * inv % p for j, v in row.items()}
            if combos is not None:
                combo = {j: v * inv % p for j, v in combo.items()}
        for opiv in list(self._tails):
            other = self._rows[opiv]
            c = other.get(piv)
            if c:
                _subtract(other, c, row, p)
                if combos is not None:
                    _subtract(combos.setdefault(opiv, {}), c, combo, p)
                if len(other) == 1:
                    self._tails.discard(opiv)
        self._rows[piv] = row
        if combos is not None:
            combos[piv] = combo
        if len(row) > 1:
            self._tails.add(piv)

    def copy(self) -> "ReferenceSpan":
        span = ReferenceSpan(self.p, self.dim)
        span._rows = {piv: dict(row) for piv, row in self._rows.items()}
        span._tails = set(self._tails)
        return span


def reference_subquotient(numerator, denominator, base: ReferenceSpan) -> list:
    """subquotient as it reduced each representative twice, through reduce
    and then add."""
    acc = base.copy()
    for v in denominator:
        acc.add(v)
    reps = []
    for v in numerator:
        red = acc.reduce(v)
        if red:
            reps.append(red)
            acc.add(red)
    if acc.rank != ReferenceSpan(base.p, base.dim, numerator).rank:
        raise InputError("denominator not contained in numerator span")
    return reps


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


def test_is_prime_agrees_with_a_sieve_below_1e5():
    # trial division below 2**16, Miller-Rabin from there on
    top = 10**5
    sieve = bytearray([1]) * top
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, top, d)))
    assert [n for n in range(-3, top) if is_prime(n)] == [n for n in range(top) if sieve[n]]


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # to the bases 2 through 23
    318665857834031151167461,  # to the bases 2 through 37
    # Carmichael numbers
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161, 1436697831295441, 60977817398996785,
    (2**31 - 1) * (10**9 + 7), MR_LIMIT - 2,
])
def test_is_prime_refuses_strong_pseudoprimes_and_carmichael_numbers(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [65537, 2**31 - 1, 10**16 + 61, 10**18 + 3, 2**61 - 1, 3317044064679887385961813])
def test_is_prime_decides_a_large_prime_at_once(n):
    t0 = time.perf_counter()
    assert is_prime(n)
    assert time.perf_counter() - t0 < 0.1


def test_is_prime_refuses_past_the_decided_range():
    for n in (MR_LIMIT, 2**127 - 1):
        with pytest.raises(InputError, match=f"cannot decide whether {n} is prime"):
            is_prime(n)


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


def _state(span) -> list:
    """A span's pivot rows, in insertion order and with each row's entry
    order, and its tail pivots."""
    return [(piv, list(row.items())) for piv, row in span._rows.items()], span._tails


def _result(f, *args):
    """f(*args), or the type and message of the InputError it raises."""
    try:
        return f(*args)
    except InputError as exc:
        return InputError, str(exc)


@st.composite
def general_rows(draw):
    """p, dim, and vectors of several entries each, raw entries in
    [-2p, 2p] so some are multiples of p: numerators; denominators and base
    rows drawn as combinations of them, some with a stray vector that may
    leave their span; and vectors for extend, with a column outside
    [0, dim) in some."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 12))
    vec = st.dictionaries(st.integers(0, dim - 1), st.integers(-2 * p, 2 * p), max_size=dim)
    num = draw(st.lists(vec, min_size=1, max_size=10))

    def combinations(count):
        out = []
        for _ in range(count):
            combo = {}
            for v in num:
                c = draw(st.integers(-p, 2 * p))
                for j, x in v.items():
                    combo[j] = combo.get(j, 0) + c * x
            out.append(combo)
        return out

    base = combinations(draw(st.integers(0, 2)))
    den = combinations(draw(st.integers(0, 3)))
    if draw(st.booleans()):
        den.insert(draw(st.integers(0, len(den))), draw(vec))
    vecs = draw(st.lists(st.one_of(vec, st.sampled_from(num + den) if num + den else vec), max_size=16))
    if draw(st.booleans()):
        bad = dict(draw(vec))
        bad[draw(st.sampled_from([-1, dim, dim + 3]))] = draw(st.integers(-2 * p, 2 * p))
        vecs.insert(draw(st.integers(0, len(vecs))), dict(draw(st.permutations(list(bad.items())))))
    return p, dim, num, base, den, vecs


@settings(max_examples=300, derandomize=True)
@given(general_rows())
def test_one_pass_reduction_equals_the_two_pass_reference(draw):
    # dense-witness reduces only one-entry rows, so this draws rows of
    # several entries, zero residues and tails
    p, dim, num, base, den, vecs = draw
    new, ref = VectorSpan(p, dim), ReferenceSpan(p, dim)
    for v in base + vecs:
        for op in ("reduce", "contains", "add"):
            assert _result(getattr(new, op), v) == _result(getattr(ref, op), v)
        assert _state(new) == _state(ref)
    # extend on held rows: the same kernel combinations and rows, or the
    # same refusal at the same vector
    new, ref = VectorSpan(p, dim, base), ReferenceSpan(p, dim, base)
    assert _result(new.extend, vecs) == _result(ref.extend, vecs)
    assert _state(new) == _state(ref)

    spans = []
    copy = VectorSpan.copy

    def recording(self):
        spans.append(copy(self))
        return spans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorSpan, "copy", recording)
        got = _result(subquotient, num, den, VectorSpan(p, dim, base))
    assert got == _result(reference_subquotient, num, den, ReferenceSpan(p, dim, base))
    if isinstance(got, list):
        # the representatives share no dict with the span they grew
        (acc,) = spans
        assert {id(rep) for rep in got}.isdisjoint(id(row) for row in acc._rows.values())

