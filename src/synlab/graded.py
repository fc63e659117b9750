"""Bidegrees, monomials, and graded F_p[v1]-module bookkeeping.

Display coordinates are (stem d, line s) with weight w = (d+s)/2.
Generator gradings, with q = 2p-2 the stem of v1:

    se(l*p^i) -> (2*l*p^i, 0)     t  -> (-2, 0)      mu -> (2p, 0)
    l1        -> (2p-1, 1)        u  -> (-1, -1)     v1 = t*mu -> (q, 0)

u is graded (-1,-1) so that the class se(l*p^n) and u*l1*t^(p-1)*se(l*p^n)
share both stem and weight in the one degree where both can appear, and so
that every fixed-point class lands on lines -1..1.  The boundary class
`del` of TC(Z_p) is placed at (-1, 1), putting del*l1 on line 2; nothing
else in this package ever reaches line 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from typing import NamedTuple

from . import fplinalg
from .errors import InputError, InvariantError

#: Sentinel for a free generator (infinite v1-torsion).
TORSION_FREE = math.inf


def geo(p: int, lo: int, hi: int) -> int:
    """p^lo + p^(lo+1) + ... + p^hi, and 0 when hi < lo (empty sum)."""
    if hi < lo:
        return 0
    return (p ** (hi + 1) - p**lo) // (p - 1)


def range_len(r: range) -> int:
    """len(r) for a step > 0, by arithmetic: len() raises OverflowError on
    a range longer than sys.maxsize."""
    return max(0, -((r.start - r.stop) // r.step))


class PrimeContext(NamedTuple("PrimeContext", [("p", int)])):
    """The prime p, checked on construction."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not fplinalg.is_prime(p):
            raise InputError(f"p={p} is not prime")
        return super().__new__(cls, p)

    @property
    def q(self) -> int:
        """Stem of v1."""
        return 2 * self.p - 2


class Bidegree(NamedTuple):
    d: int  # stem
    s: int  # line


def monomial_stem(p: int, level: int, twist: int, t_exp: int, mu_exp: int, lam: int, u_exp: int) -> int:
    """Stem of se(twist*p^level) t^t_exp mu^mu_exp l1^lam u^u_exp; its line
    is lam - u_exp.  No exponent is checked here (see Monomial)."""
    return 2 * twist * p**level - 2 * t_exp + 2 * p * mu_exp + (2 * p - 1) * lam - u_exp


class Monomial(NamedTuple("Monomial", [("level", int), ("twist", int), ("t_exp", int), ("mu_exp", int),
                                       ("lam", int), ("u_exp", int)])):
    """se(twist*p^level) * t^t_exp * mu^mu_exp * l1^lam * u^u_exp.

    Exponent sign conventions are the page variant's business; this class
    only does grading arithmetic.  lam and u_exp are 0 or 1 (exterior).
    """

    __slots__ = ()

    def __new__(cls, level: int = 0, twist: int = 0, t_exp: int = 0, mu_exp: int = 0, lam: int = 0, u_exp: int = 0):
        if lam not in (0, 1) or u_exp not in (0, 1):
            raise InputError("exterior exponents must be 0 or 1")
        if level < 0 or twist < 0:
            raise InputError("level and twist must be nonnegative")
        return super().__new__(cls, level, twist, t_exp, mu_exp, lam, u_exp)

    def bidegree(self, ctx: PrimeContext) -> Bidegree:
        return Bidegree(monomial_stem(ctx.p, self.level, self.twist, self.t_exp, self.mu_exp, self.lam, self.u_exp),
                        self.lam - self.u_exp)

    @property
    def line(self) -> int:
        return self.lam - self.u_exp

    def __str__(self):
        parts = []
        if self.twist:
            parts.append(f"se({self.twist}p^{self.level})")
        if self.t_exp:
            parts.append(f"t^{self.t_exp}" if self.t_exp != 1 else "t")
        if self.mu_exp:
            parts.append(f"mu^{self.mu_exp}" if self.mu_exp != 1 else "mu")
        if self.lam:
            parts.append("l1")
        if self.u_exp:
            parts.append(f"u{self.level}")
        return "*".join(parts) if parts else "1"


def orbit_heights(q: int, d: int, length, window) -> range:
    """The heights j, 0 <= j < length, with d + j*q in the window, ascending.

    These are the heights of the v1-translates v1^j g of a class g at stem d
    whose v1-orbit has `length` members; length may be TORSION_FREE.
    """
    lo, hi = window
    j_end = (hi - d) // q + 1
    if length != TORSION_FREE:
        j_end = min(j_end, int(length))
    return range(max(0, -((d - lo) // q)), j_end)  # ceil((lo - d) / q)


def orbit_dims(q: int, window, orbits, params: dict | None = None) -> "DimTable":
    """The DimTable of v1-orbits on a stem window.

    orbits yields ((stem, line, length), multiplicity): that many orbits
    v1^j g, j < length, of a class g at (stem, line).  Each translate with
    its stem in the window counts once at (its stem, line): the heights
    orbit_heights gives, solved here inline.
    """
    lo, hi = window
    counts: dict = {}
    get = counts.get
    for (d, s, length), mult in orbits:
        end = (hi - d) // q + 1
        if length < end:  # never for TORSION_FREE
            end = int(length)
        # the first stem d + j*q >= lo, j >= 0
        for stem in range(d if d >= lo else d - (d - lo) // q * q, d + end * q, q):
            key = (stem, s)
            counts[key] = get(key, 0) + mult
    return DimTable(params or {}, counts, window)


class Generator(NamedTuple("Generator", [("label", object), ("bidegree", Bidegree), ("torsion", float), ("certified", bool)])):
    """One cyclic summand F_p[v1]/(v1^torsion) {label at bidegree}.

    label is a str, or a hashable key whose str() is the label text, made
    only when a message reads it; torsion is a positive int or
    TORSION_FREE; certified False means the torsion is only known to be
    >= the stated value.
    """

    __slots__ = ()

    def __new__(cls, label, bidegree: Bidegree, torsion: float, certified: bool = True):
        if torsion != TORSION_FREE and (torsion <= 0 or torsion != int(torsion)):
            raise InputError(f"bad torsion order {torsion}")
        return super().__new__(cls, label, bidegree, torsion, certified)


def torsion_multiset(gens, prefix: str = "") -> Counter:
    """Counter{(stem, line, torsion): multiplicity} of the generators.

    Raises InvariantError on a generator whose torsion is only a lower
    bound: no table may be built on it.
    """
    out: Counter = Counter()
    for g in gens:
        if not g.certified:
            raise InvariantError(f"generator {prefix}{g.label} at {tuple(g.bidegree)} has only a lower bound on its torsion")
        out[(g.bidegree.d, g.bidegree.s, g.torsion)] += 1
    return out


def differences(a: dict, b: dict) -> list:
    """[(key, a count, b count), ...] in key order over the keys where the
    count maps a and b differ, an absent key counting 0.  Two routes are
    compared here, so maps that agree cost one equality test and no sort:
    dict's own, in C, which Counter's Python-level == would replace; a zero
    count it tells apart from an absent key falls to the scan below."""
    if dict.__eq__(a, b):
        return []
    keys = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    return [(k, a.get(k, 0), b.get(k, 0)) for k in sorted(keys)]


class CyclicDecomposition:
    """A list of Generators with distinct labels, compared as keys; only a
    refusal formats them."""

    def __init__(self, entries: list | None = None):
        self.entries = [] if entries is None else entries
        labels = [g.label for g in self.entries]
        if len(set(labels)) != len(labels):
            dup = sorted({str(x) for x in labels if labels.count(x) > 1})
            raise InvariantError(f"duplicate generator labels: {dup[:5]}")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def generators_in(self, window) -> list:
        lo, hi = window
        return [g for g in self.entries if lo <= g.bidegree.d <= hi]

    def dims(self, ctx: PrimeContext, window, params: dict | None = None) -> "DimTable":
        """Counts per (stem, line) of the v1-power translates v1^j g in the
        window, j below the torsion of g.

        Raises InvariantError on a generator whose torsion is only a lower
        bound, which would make the counts a guess.
        """
        return orbit_dims(ctx.q, window, torsion_multiset(self.entries).items(), params)


class DimTable:
    """Map (stem, line) -> dimension over F_p, with the request parameters."""

    def __init__(self, params: dict, entries: dict, window: tuple, notes: dict | None = None):
        self.params = params
        self.entries = entries
        self.window = window
        self.notes = {} if notes is None else notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.params, self.entries, self.window, self.notes)
                == (other.params, other.entries, other.window, other.notes))

    def same_entries(self, other: "DimTable") -> bool:
        return not differences(self.entries, other.entries)

    def _rows(self):
        """(stem, line, weight, dim) over the nonzero entries, by (stem, line)."""
        return ((d, s, (d + s) // 2, n) for (d, s), n in sorted(self.entries.items()) if n)

    def _json_obj(self, entries) -> dict:
        obj = {
            "p": self.params.get("p"),
            "n": self.params.get("n"),
            "k": self.params.get("k"),
            "window": [self.window[0], self.window[1]],
            "entries": entries,
        }
        if self.notes:
            obj["meta"] = dict(sorted(self.notes.items()))
        return obj

    def to_json_obj(self) -> dict:
        return self._json_obj([{"stem": d, "line": s, "weight": w, "dim": n} for d, s, w, n in self._rows()])

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj(), indent=2), byte for byte.  With an
        indent the json module encodes in pure Python, so the entries block,
        all integers, is written here, and the rest goes through json.dumps
        with a null in its place."""
        text = json.dumps(self._json_obj(None), indent=2)
        rows = ",\n".join(
            f'    {{\n      "stem": {d},\n      "line": {s},\n      "weight": {w},\n      "dim": {n}\n    }}'
            for d, s, w, n in self._rows()
        )
        block = f'[\n{rows}\n  ]' if rows else "[]"
        # JSON escapes a newline inside a string, so this is the top-level key
        return text.replace('\n  "entries": null', f'\n  "entries": {block}', 1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["stem", "line", "weight", "dim"])
        w.writerows(self._rows())
        return buf.getvalue()

