"""Exact linear algebra over the prime field F_p.

Vectors are tuples of ints reduced into [0, p).  Pivots are always the
first nonzero entry in column order, so every basis returned here is
deterministic.  Matrices store entries sparsely as {(row, col): residue};
row reduction works on dense lists of residues, one per column.
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
        columns = list(columns)
        entries = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                v %= p
                if v:
                    entries[(i, j)] = v
        return cls(p, nrows, len(columns), entries)

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        out = [0] * self.rows
        for (r, c), a in self.entries.items():
            out[r] = (out[r] + a * v[c]) % self.p
        return tuple(out)


class VectorSpan:
    """Incrementally built row space in reduced echelon form.

    Rows are kept fully reduced against each other, so reduce() returns the
    canonical representative of a vector modulo the span.
    """

    def __init__(self, p: int, dim: int, vectors=()):
        _check_prime(p)
        self.p = p
        self.dim = dim
        self._rows: dict = {}  # pivot col -> row, a list of dim residues
        for v in vectors:
            self.add(v)

    def _reduce_row(self, vec) -> list:
        if len(vec) != self.dim:
            raise InputError(f"vector length {len(vec)} != ambient dim {self.dim}")
        p = self.p
        row = [v % p for v in vec]
        for piv, base in self._rows.items():
            c = row[piv]
            if c:
                for j in range(piv, self.dim):
                    if base[j]:
                        row[j] = (row[j] - c * base[j]) % p
        return row

    def reduce(self, vec) -> tuple:
        return tuple(self._reduce_row(vec))

    def contains(self, vec) -> bool:
        return not any(self._reduce_row(vec))

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        row = self._reduce_row(vec)
        piv = next((j for j, v in enumerate(row) if v), None)
        if piv is None:
            return False
        inv = pow(row[piv], -1, self.p)
        row = [(v * inv) % self.p for v in row]
        for other in self._rows.values():
            c = other[piv]
            if c:
                for j in range(piv, self.dim):
                    if row[j]:
                        other[j] = (other[j] - c * row[j]) % self.p
        self._rows[piv] = row
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self):
        return [tuple(self._rows[piv]) for piv in sorted(self._rows)]


def _row_span(m: FpMatrix) -> VectorSpan:
    """Span of the rows of m, added in row order."""
    span = VectorSpan(m.p, m.cols)
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, [0] * m.cols)[c] = v
    for r in sorted(rows):
        span.add(rows[r])
    return span


def rank(m: FpMatrix) -> int:
    return _row_span(m).rank


def kernel_basis(m: FpMatrix):
    """Deterministic basis of {v : m.v = 0}, one vector per free column."""
    p = m.p
    pivot_rows = _row_span(m)._rows
    pivots = sorted(pivot_rows)
    basis = []
    for f in range(m.cols):
        if f in pivot_rows:
            continue
        vec = [0] * m.cols
        vec[f] = 1
        for piv in pivots:
            coef = pivot_rows[piv][f]
            if coef:
                vec[piv] = (-coef) % p
        basis.append(tuple(vec))
    return basis


def subquotient(numerator, denominator, p: int, ambient_dim: int) -> list:
    """A list of representatives of span(numerator) modulo span(denominator).

    Requires span(denominator) to be contained in span(numerator); each
    representative is reduced modulo the denominator (and earlier
    representatives), so rank(num) = len(representatives) + rank(den).
    """
    _check_prime(p)
    num_span = VectorSpan(p, ambient_dim, numerator)
    for v in denominator:
        if not num_span.contains(v):
            raise InputError("denominator not contained in numerator span")
    acc = VectorSpan(p, ambient_dim, denominator)
    reps = []
    for v in numerator:
        red = acc.reduce(v)
        if any(red):
            reps.append(red)
            acc.add(red)
    return reps

