import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synlab.errors import InvariantError
from synlab.graded import (
    TORSION_FREE,
    Bidegree,
    CyclicDecomposition,
    DimTable,
    Generator,
    Monomial,
    PrimeContext,
    differences,
    geo,
    orbit_heights,
    orbit_stems,
    vp,
)


CTX3 = PrimeContext(3)


def test_geo_empty_sum_conventions():
    assert geo(3, 1, 0) == 0  # p + ... + p^k at k = 0
    assert geo(3, 0, -1) == 0  # 1 + ... + p^(n-1) at n = 0
    assert geo(3, 0, 1) == 4
    assert geo(2, 1, 3) == 14


def test_vp():
    assert vp(3, 18) == 2 and vp(3, -18) == 2 and vp(3, 1) == 0
    assert vp(3, 0) == float("inf")


def test_generator_bidegrees():
    assert Monomial(mu_exp=1).bidegree(CTX3) == (6, 0)
    assert Monomial(lam=1).bidegree(CTX3) == (5, 1)
    assert Monomial(t_exp=1).bidegree(CTX3) == (-2, 0)
    assert Monomial(u_exp=1).bidegree(CTX3) == (-1, -1)
    assert Monomial(level=1, twist=1).bidegree(CTX3) == (6, 0)  # se(1*p^1)
    # v1 = t*mu has the degree of the periodicity class
    assert Monomial(t_exp=1, mu_exp=1).bidegree(CTX3) == (CTX3.q, 0)


def test_bidegree_additivity_randomized():
    rng = random.Random(7)
    for _ in range(50):
        a = Monomial(1, 2, rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 1), rng.randint(0, 1))
        b = Monomial(1, 2, rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 1 - a.lam), rng.randint(0, 1 - a.u_exp))
        ab = Monomial(1, 2, a.t_exp + b.t_exp, a.mu_exp + b.mu_exp, a.lam + b.lam, a.u_exp + b.u_exp)
        bid_a, bid_b, bid_ab = a.bidegree(CTX3), b.bidegree(CTX3), ab.bidegree(CTX3)
        # additive, minus the doubled twist class
        twist = Monomial(1, 2).bidegree(CTX3)
        assert bid_ab.d == bid_a.d + bid_b.d - twist.d
        assert bid_ab.s == bid_a.s + bid_b.s


def test_line_and_parity():
    rng = random.Random(8)
    for _ in range(60):
        m = Monomial(0, rng.randint(0, 3), rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 1), rng.randint(0, 1))
        bid = m.bidegree(CTX3)
        assert bid.s in (-1, 0, 1)
        assert (bid.d + bid.s) % 2 == 0


def test_dims_free_generator():
    dec = CyclicDecomposition([Generator("g", Bidegree(0, 0), TORSION_FREE)])
    table = dec.dims(CTX3, (0, 8))
    assert table.entries == {(0, 0): 1, (4, 0): 1, (8, 0): 1}


def test_dims_torsion_two():
    dec = CyclicDecomposition([Generator("g", Bidegree(5, 1), 2)])
    table = dec.dims(CTX3, (0, 20))
    assert table.entries == {(5, 1): 1, (9, 1): 1}


def test_dims_refuses_uncertified_torsion():
    dec = CyclicDecomposition([Generator("g", Bidegree(5, 1), 2, certified=False)])
    with pytest.raises(InvariantError, match="g at \\(5, 1\\) has only a lower bound"):
        dec.dims(CTX3, (0, 20))


ORBIT_DRAWS = st.tuples(
    st.sampled_from((2, 4, 8, 12)),  # q = 2p - 2 for p = 2, 3, 5, 7
    st.integers(-60, 60),
    st.one_of(st.integers(0, 12), st.just(TORSION_FREE)),
    st.integers(-80, 80),
    st.integers(-1, 40),
)


@settings(max_examples=300)
@given(ORBIT_DRAWS)
@example((4, 10, TORSION_FREE, 30, 20))  # window above d, free orbit
@example((4, 10, 3, 30, 20))  # window above the orbit's top
@example((4, 10, TORSION_FREE, -20, 20))  # window wholly below d
@example((2, 0, TORSION_FREE, 0, 0))
def test_orbit_heights_is_the_scan_over_j(draw):
    q, d, length, lo, width = draw
    hi = lo + width
    # every j past 200 puts d + j*q above every window drawn
    scan = [j for j in range(200 if length == TORSION_FREE else length) if lo <= d + j * q <= hi]
    assert list(orbit_heights(q, d, length, (lo, hi))) == scan
    assert list(orbit_stems(q, d, length, (lo, hi))) == [d + j * q for j in scan]


def test_dims_tc_zp_pattern():
    # basis 1, l1, del, del*l1, t*l1, t^2*l1 over F_3[v1], stems -1..4
    gens = [
        Generator("1", Bidegree(0, 0), TORSION_FREE),
        Generator("l1", Bidegree(5, 1), TORSION_FREE),
        Generator("del", Bidegree(-1, 1), TORSION_FREE),
        Generator("del*l1", Bidegree(4, 2), TORSION_FREE),
        Generator("t*l1", Bidegree(3, 1), TORSION_FREE),
        Generator("t^2*l1", Bidegree(1, 1), TORSION_FREE),
    ]
    table = CyclicDecomposition(gens).dims(CTX3, (-1, 4))
    # (3,1) holds both t*l1 and v1*del
    assert table.entries == {(-1, 1): 1, (0, 0): 1, (1, 1): 1, (3, 1): 2, (4, 0): 1, (4, 2): 1}


def test_dims_additive_over_direct_sum():
    a = CyclicDecomposition([Generator("x", Bidegree(0, 0), 3)])
    b = CyclicDecomposition([Generator("y", Bidegree(4, 0), TORSION_FREE)])
    ab = CyclicDecomposition(a.entries + b.entries)
    w = (0, 12)
    da, db, dab = a.dims(CTX3, w).entries, b.dims(CTX3, w).entries, ab.dims(CTX3, w).entries
    for key in set(da) | set(db) | set(dab):
        assert dab.get(key, 0) == da.get(key, 0) + db.get(key, 0)


def test_duplicate_labels_rejected():
    with pytest.raises(InvariantError):
        CyclicDecomposition([
            Generator("g", Bidegree(0, 0), 1),
            Generator("g", Bidegree(2, 0), 1),
        ])


def test_dimtable_json_roundtrip():
    table = DimTable({"p": 3, "n": 3, "k": 1}, {(0, 0): 1, (5, 1): 2}, (-2, 10), {"mode": "closed"})
    obj = json.loads(table.to_json())
    assert {(e["stem"], e["line"]): e["dim"] for e in obj["entries"]} == table.entries
    assert {k: obj[k] for k in ("p", "n", "k")} == table.params
    assert tuple(obj["window"]) == table.window
    assert obj["meta"] == table.notes
    assert [e["weight"] for e in obj["entries"]] == [0, 3]


NOTE_VALUES = st.one_of(st.booleans(), st.integers(-5, 5), st.text(max_size=8), st.lists(st.integers(0, 3), max_size=3))


@settings(max_examples=200)
@given(
    st.dictionaries(st.sampled_from(("p", "n", "k")), st.one_of(st.none(), st.integers(0, 7))),
    st.dictionaries(st.tuples(st.integers(-40, 400), st.integers(-1, 2)), st.integers(0, 30), max_size=20),
    st.tuples(st.integers(-10, 10), st.integers(-10, 500)),
    st.dictionaries(st.text(max_size=6), NOTE_VALUES, max_size=3),
)
@example({"p": 3}, {}, (0, 10), {})  # empty entries and no meta block
@example({}, {(0, 0): 0}, (0, 0), {"entries": None, "x": 'a\n  "entries": null'})
def test_dimtable_json_is_the_indented_json_dump(params, entries, window, notes):
    table = DimTable(params, entries, window, notes)
    assert table.to_json() == json.dumps(table.to_json_obj(), indent=2)


def test_dimtable_csv_header():
    table = DimTable({}, {(5, 1): 1}, (0, 10))
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "stem,line,weight,dim"
    assert lines[1] == "5,1,3,1"


COUNT_MAPS = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-1, 2)), st.integers(0, 3), max_size=12)


@settings(max_examples=200)
@given(COUNT_MAPS, COUNT_MAPS)
def test_differences_is_the_sorted_scan(a, b):
    naive = []
    for key in sorted(set(a) | set(b)):
        if a.get(key, 0) != b.get(key, 0):
            naive.append((key, a.get(key, 0), b.get(key, 0)))
    assert differences(a, b) == naive
    nonzero = lambda m: {k: v for k, v in m.items() if v}
    assert (differences(a, b) == []) == (nonzero(a) == nonzero(b))
    # a zero count is an absent key
    assert differences(a, b) == differences(nonzero(a), b) == differences(a, nonzero(b))
    assert DimTable({}, a, (-3, 3)).same_entries(DimTable({}, b, (-3, 3))) == (differences(a, b) == [])
