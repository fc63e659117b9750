"""Exact linear algebra over the prime field F_p.

A vector is a sparse row: a dict from column to a nonzero residue in
[1, p).  Absent columns hold 0, and a residue that is 0 mod p is never
stored.  Pivots are always the first nonzero column and rows are kept
fully reduced, so every basis returned here is deterministic.  Matrices
store entries sparsely as {(row, col): residue}.

Every elimination goes through a VectorSpan, and each vector is
eliminated once, in one pass that makes its residues and finds the pivot
rows it hits, then one subtraction per hit.  VectorSpan.extend adds
vectors in order and tracks the combination behind each row it makes; a
vector that adds nothing yields its kernel combination directly, which is
the free-column basis of the row echelon form (see extend).  kernel_basis
is extend over a matrix's columns on an empty span, and rank reads a
matrix by rows.  subquotient grows a copy of a denominator span, inserts
each representative it has reduced without reducing it again, and tests
containment by one rank comparison.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError


# The first thirteen primes: as Miller-Rabin bases they decide every n below
# MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster); the first twelve stop at 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division below 2**16, the cheap path every
    span and matrix takes; deterministic Miller-Rabin over _MR_BASES up to
    MR_LIMIT; an InputError past it, rather than an unbounded search."""
    if n < 1 << 16:
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True
    if n >= MR_LIMIT:
        raise InputError(f"cannot decide whether {n} is prime: primality is decided only below {MR_LIMIT}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")


def _subtract(row: dict, c: int, src: dict, p: int) -> None:
    """row -= c*src in place, deleting the entries that become 0."""
    for j, b in src.items():
        x = (row.get(j, 0) - c * b) % p
        if x:
            row[j] = x
        else:
            del row[j]


class FpMatrix(NamedTuple("FpMatrix", [("p", int), ("rows", int), ("cols", int), ("entries", dict)])):
    """Sparse matrix over F_p; entries maps (row, col) to a nonzero residue."""

    __slots__ = ()

    def __new__(cls, p: int, rows: int, cols: int, entries: dict | None = None):
        _check_prime(p)
        entries = {} if entries is None else entries
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise InputError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not (0 < v < p):
                raise InputError(f"entry ({r},{c})={v} not reduced and nonzero mod {p}")
        return super().__new__(cls, p, rows, cols, entries)


class VectorSpan:
    """Incrementally built row space in reduced echelon form.

    Rows are kept fully reduced against each other, so reduce() returns the
    canonical representative of a vector modulo the span.
    """

    def __init__(self, p: int, dim: int, vectors=()):
        _check_prime(p)
        self.p = p
        self.dim = dim
        self._rows: dict = {}  # pivot col -> sparse row with a 1 there
        self._tails: set = set()  # pivots whose rows have entries past the pivot
        for v in vectors:
            self.add(v)

    def _reduce_row(self, vec) -> tuple:
        """(row, hits): vec reduced modulo the span, a fresh sparse row,
        and the pairs (pivot, coefficient) of the pivot rows taken off it,
        in order.  One pass over vec makes its residues mod p and finds the
        pivots it hits; a column outside [0, dim) raises."""
        p, dim, rows = self.p, self.dim, self._rows
        row = {}
        hits = []
        for c, v in vec.items():
            if not 0 <= c < dim:
                raise InputError(f"column {c} outside ambient dim {dim}")
            v %= p
            if v:
                row[c] = v
                if c in rows:
                    hits.append((c, v))
        # Each stored row is 0 at every other pivot, so the coefficient of
        # a pivot row is the input's own entry there.
        for piv, c in hits:
            _subtract(row, c, rows[piv], p)
        return row, hits

    def reduce(self, vec) -> dict:
        return self._reduce_row(vec)[0]

    def contains(self, vec) -> bool:
        return not self._reduce_row(vec)[0]

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        row = self._reduce_row(vec)[0]
        if row:
            self._insert(row)
        return bool(row)

    def extend(self, vectors) -> list:
        """Add vectors in order; return the kernel combination of each one
        that adds nothing, in order.

        A combination maps a vector's index to a coefficient, and the
        vectors it combines sum to an element of the span as it was before
        the call.  Each row carries the combination behind it: a row made
        here starts from its own vector, a row from before the call starts
        empty, and a new row substituted into an old one carries its
        combination along.  A vector that reduces to zero is free, and its
        combination is 1 at its own index and otherwise supported on the
        earlier vectors that made rows.  Such a kernel vector, 0 at every
        other free index, is unique: on an empty span this is the
        free-column basis of the reduced row echelon form of the matrix
        with these columns, listed by free column.
        """
        p = self.p
        combos: dict = {}  # pivot -> combination behind its row, if any
        kernel = []
        for f, vec in enumerate(vectors):
            if not vec:
                kernel.append({f: 1})
                continue
            row, hits = self._reduce_row(vec)
            combo = {f: 1}
            for piv, c in hits:
                if piv in combos:
                    _subtract(combo, c, combos[piv], p)
            if row:
                self._insert(row, combo, combos)
            else:
                kernel.append(combo)
        return kernel

    def _insert(self, row: dict, combo=None, combos=None) -> None:
        """Make the reduced nonzero row a pivot row, 1 at its pivot, and
        clear its pivot column from the other rows; given combos (pivot ->
        combination), combo is scaled along and carried into them."""
        p = self.p
        piv = min(row)
        inv = pow(row[piv], -1, p)
        if inv != 1:
            row = {j: v * inv % p for j, v in row.items()}
            if combos is not None:
                combo = {j: v * inv % p for j, v in combo.items()}
        # only a row with entries past its own pivot can have one at piv
        if self._tails:
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

    def copy(self) -> "VectorSpan":
        """The same span, sharing no row with this one."""
        span = VectorSpan(self.p, self.dim)
        span._rows = {piv: dict(row) for piv, row in self._rows.items()}
        span._tails = set(self._tails)
        return span

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self):
        return [dict(self._rows[piv]) for piv in sorted(self._rows)]


def rank(m: FpMatrix) -> int:
    """Rank of the span of the rows of m, added in row order."""
    span = VectorSpan(m.p, m.cols)
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    for r in sorted(rows):
        span.add(rows[r])
    return span.rank


def kernel_basis(m: FpMatrix):
    """Deterministic basis of {v : m.v = 0}, one vector per free column:
    VectorSpan.extend over the columns of m on an empty span."""
    columns = [{} for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        columns[c][r] = v
    return VectorSpan(m.p, m.rows).extend(columns)


def subquotient(numerator, denominator, base: VectorSpan) -> list:
    """A list of representatives of span(numerator) modulo D =
    span(base) + span(denominator), in base's field and dimension.

    Requires D to be contained in span(numerator).  D grows on a copy of
    base, which is never changed; each representative is reduced modulo D
    and the earlier representatives, so rank(num) = len(representatives)
    + rank(D).  The span built along the way is span(num) + D, so
    containment is one rank test: that span has the rank of span(num)
    alone.
    """
    acc = base.copy()
    for v in denominator:
        acc.add(v)
    reps = []
    for v in numerator:
        red = acc.reduce(v)
        if red:
            reps.append(red)
            # red is reduced modulo acc already; acc takes a copy, so no
            # later insert changes the returned row
            acc._insert(dict(red))
    if acc.rank != VectorSpan(base.p, base.dim, numerator).rank:
        raise InputError("denominator not contained in numerator span")
    return reps
