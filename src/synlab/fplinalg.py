"""Exact linear algebra over the prime field F_p.

A vector is a sparse row: a dict from column to a nonzero residue in
[1, p).  Absent columns hold 0, and a residue that is 0 mod p is never
stored.  Pivots are always the first nonzero column and rows are kept
fully reduced, so every basis returned here is deterministic.  Matrices
store entries sparsely as {(row, col): residue}.

rank reads a matrix by rows, through a VectorSpan.  kernel_basis reads it
by columns in one elimination pass that tracks the combination behind
each kept column; a column that reduces to zero yields its kernel vector
directly, which is the free-column basis of the row echelon form (see
kernel_basis).  subquotient tests containment of the denominator by one
rank comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")


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


def _subtract(row: dict, c: int, src: dict, p: int) -> None:
    """row -= c*src in place, deleting the entries that become 0."""
    for j, b in src.items():
        x = (row.get(j, 0) - c * b) % p
        if x:
            row[j] = x
        else:
            del row[j]


@dataclass(frozen=True)
class FpMatrix:
    """Sparse matrix over F_p; entries maps (row, col) to a nonzero residue."""

    p: int
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_prime(self.p)
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise InputError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
            if not (0 < v < self.p):
                raise InputError(f"entry ({r},{c})={v} not reduced and nonzero mod {self.p}")

    @classmethod
    def from_columns(cls, p: int, columns, nrows: int) -> "FpMatrix":
        """The matrix whose j-th column is the sparse vector columns[j]."""
        columns = list(columns)
        entries = {(i, j): v for j, col in enumerate(columns) for i, v in _residues(col, p, nrows).items()}
        return cls(p, nrows, len(columns), entries)


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

    def _reduce_row(self, vec) -> dict:
        p = self.p
        row = _residues(vec, p, self.dim)
        rows = self._rows
        # Each stored row is 0 at every other pivot, so the coefficient of
        # a pivot row is the input's own entry there.
        for piv, c in [(j, v) for j, v in row.items() if j in rows]:
            _subtract(row, c, rows[piv], p)
        return row

    def reduce(self, vec) -> dict:
        return self._reduce_row(vec)

    def contains(self, vec) -> bool:
        return not self._reduce_row(vec)

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        row = self._reduce_row(vec)
        if not row:
            return False
        p = self.p
        piv = min(row)
        inv = pow(row[piv], -1, p)
        if inv != 1:
            row = {j: v * inv % p for j, v in row.items()}
        # only a row with entries past its own pivot can have one at piv
        for opiv in list(self._tails):
            other = self._rows[opiv]
            c = other.get(piv)
            if c:
                _subtract(other, c, row, p)
                if len(other) == 1:
                    self._tails.discard(opiv)
        self._rows[piv] = row
        if len(row) > 1:
            self._tails.add(piv)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self):
        return [dict(self._rows[piv]) for piv in sorted(self._rows)]


def _row_span(m: FpMatrix) -> VectorSpan:
    """Span of the rows of m, added in row order."""
    span = VectorSpan(m.p, m.cols)
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    for r in sorted(rows):
        span.add(rows[r])
    return span


def rank(m: FpMatrix) -> int:
    return _row_span(m).rank


def kernel_basis(m: FpMatrix):
    """Deterministic basis of {v : m.v = 0}, one vector per free column.

    One pass over the columns in order: each column is reduced against the
    earlier independent columns, which are kept fully reduced along with
    the combination of columns that makes each of them.  A column that
    reduces to zero is free, and its combination is its kernel vector: 1
    at the free column and otherwise supported on earlier pivot columns.
    A kernel vector with 1 at a free column and 0 at every other free
    column is unique, so this is the free-column basis of the reduced row
    echelon form, listed by free column.
    """
    p = m.p
    columns = [{} for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        columns[c][r] = v
    pivots: dict = {}  # pivot row -> (reduced column with 1 there, its combination)
    tails: set = set()  # pivots whose columns have entries past the pivot row
    basis = []
    for f, col in enumerate(columns):
        combo = {f: 1}
        # Each kept column is 0 at every other pivot row, so the coefficient
        # of a pivot is the input's own entry there.
        for piv, c in [(r, v) for r, v in col.items() if r in pivots]:
            pcol, pcombo = pivots[piv]
            _subtract(col, c, pcol, p)
            _subtract(combo, c, pcombo, p)
        if not col:
            basis.append(combo)
            continue
        piv = min(col)
        inv = pow(col[piv], -1, p)
        if inv != 1:
            col = {r: v * inv % p for r, v in col.items()}
            combo = {j: v * inv % p for j, v in combo.items()}
        for opiv in list(tails):
            ocol, ocombo = pivots[opiv]
            c = ocol.get(piv)
            if c:
                _subtract(ocol, c, col, p)
                _subtract(ocombo, c, combo, p)
                if len(ocol) == 1:
                    tails.discard(opiv)
        pivots[piv] = (col, combo)
        if len(col) > 1:
            tails.add(piv)
    return basis


def subquotient(numerator, denominator, p: int, ambient_dim: int) -> list:
    """A list of representatives of span(numerator) modulo span(denominator).

    Requires span(denominator) to be contained in span(numerator); each
    representative is reduced modulo the denominator (and earlier
    representatives), so rank(num) = len(representatives) + rank(den).
    The span built along the way is span(num) + span(den), so containment
    is one rank test: that span has the rank of span(num) alone.
    """
    _check_prime(p)
    acc = VectorSpan(p, ambient_dim, denominator)
    reps = []
    for v in numerator:
        red = acc.reduce(v)
        if red:
            reps.append(red)
            acc.add(red)
    if acc.rank != VectorSpan(p, ambient_dim, numerator).rank:
        raise InputError("denominator not contained in numerator span")
    return reps
