import json
import re
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synlab import fplinalg, nygaard, trkernel
from synlab.cli import main
from synlab.closedforms import TRUNC_INF, enumerate_families
from synlab.errors import InputError, InvariantError, ResourceError, VerificationFailure
from synlab.graded import Bidegree, CyclicDecomposition, Generator, Monomial, PrimeContext, orbit_heights, torsion_multiset
from synlab.nygaard import SSPage
from synlab.trkernel import (
    KernelLabel,
    PageSet,
    SurjectivityReport,
    TrOracle,
    complete_to_kernel,
    gr_can,
    gr_phi,
    probe_element_torsion,
    tr_gr_module,
)
from test_fplinalg import mul_vec

CTX3 = PrimeContext(3)


def iter_alive(res, window):
    """(monomial, h) over the survivors of an E-infinity page below its v1
    cutoff in a stem window."""
    n, ell = res.page.n, res.page.ell
    for seg, delta, _stem0, hs, _lo, _hi in res._survivors(window):
        a, b = seg.a_slope * delta, seg.b_slope * delta
        for h in hs:
            yield Monomial(n, ell, a + h, b + h, seg.e1, seg.e2), h


def _first_smallest(margins) -> dict:
    """{piece: margin} at the first of the (piece, margin) pairs, in the
    order given, whose margin is the smallest; {} for no pair."""
    return dict([min(margins, key=lambda pm: pm[1])]) if margins else {}


class ReferenceOracle:
    """The TR kernel piece by piece, on the pages of a TrOracle.

    Every survivor is a Monomial in the piece at (stem, line, s); each piece
    gets its own matrix and kernel, and v1-surjectivity shifts every kernel
    vector one piece up.  The can/phi images are read from gr_can/gr_phi at
    each height.
    """

    def __init__(self, oracle: TrOracle):
        self.ctx, self.pages, self.top, self.window = oracle.ctx, oracle.pages, oracle.top, oracle.window
        self._src_pieces: dict = {}
        self._tgt_pieces: dict = {}
        self._kernels: dict = {}
        lo, hi = self.window
        window = (min(lo, 0), hi + 1)
        for pages, pieces in ((self.pages.hfp, self._src_pieces), (self.pages.tate, self._tgt_pieces)):
            for level, res in pages.items():
                for mono, h in iter_alive(res, window):
                    pieces.setdefault((mono.bidegree(self.ctx).d, mono.line, h), []).append((level, mono))
            for piece in pieces.values():
                piece.sort(key=lambda lm: (lm[0], lm[1].t_exp, lm[1].mu_exp))

    def _image(self, gr, level, mono, s):
        img = gr((level, mono.t_exp - s, mono.mu_exp - s, mono.lam, mono.u_exp), s, self.pages)
        return None if img is None else (img[0], self.pages.monomial(img, s))

    def matrix(self, key) -> fplinalg.FpMatrix:
        p = self.ctx.p
        src = self._src_pieces.get(key, [])
        tgt = self._tgt_pieces.get(key, [])
        index = {lm: i for i, lm in enumerate(tgt)}
        entries = {}
        s = key[2]
        for j, (level, mono) in enumerate(src):
            for img, sign in (
                (self._image(gr_can, level, mono, s), -1),
                (self._image(gr_phi, level, mono, s) if level < self.top else None, 1),
            ):
                if img is not None:
                    row = index[img]
                    entries[(row, j)] = (entries.get((row, j), 0) + sign) % p
        entries = {k: v for k, v in entries.items() if v}
        return fplinalg.FpMatrix(p, len(tgt), len(src), entries)

    def kernel(self, key):
        if key not in self._kernels:
            src = self._src_pieces.get(key, [])
            self._kernels[key] = fplinalg.kernel_basis(self.matrix(key)) if src else []
        return self._kernels[key]

    def _shift_vector(self, key, vec):
        """Multiply a kernel vector by v1; returns (new key, vector)."""
        stem, line, s = key
        nkey = (stem + self.ctx.q, line, s + 1)
        src = self._src_pieces.get(key, [])
        nindex = {lm: i for i, lm in enumerate(self._src_pieces.get(nkey, []))}
        out = {}
        for j, c in vec.items():
            level, mono = src[j]
            up = Monomial(mono.level, mono.twist, mono.t_exp + 1, mono.mu_exp + 1, mono.lam, mono.u_exp)
            pos = nindex.get((level, up))
            if pos is not None:
                out[pos] = c
            else:
                cls = (level, mono.t_exp, mono.mu_exp, mono.lam, mono.u_exp)
                assert not self.pages.hfp[level].alive(cls, 1), "v1 shift left the assembled stem range"
        return nkey, out

    def generators(self) -> list:
        out = []
        lo, hi = self.window
        for key in sorted(k for k in self._src_pieces if k[2] == 0 and lo <= k[0] <= hi):
            src = self._src_pieces[key]
            for vec in self.kernel(key):
                comps = [(level, m.t_exp, m.mu_exp, m.lam, m.u_exp) for level, m in (src[j] for j in vec)]
                r = probe_element_torsion(self.pages, comps)
                out.append(Generator(f"ref{len(out)}", Bidegree(key[0], key[1]), r))
        return out

    def check_v1_surjectivity(self) -> list:
        failures = []
        lo, hi = self.window
        q = self.ctx.q
        for key in sorted(self._src_pieces):
            stem, line, s = key
            if s == 0 or not (lo <= stem <= hi):
                continue
            pkey = (stem - q, line, s - 1)
            kdim = len(self.kernel(key))
            if kdim == 0:
                continue
            span = fplinalg.VectorSpan(self.ctx.p, len(self._src_pieces[key]))
            for pv in self.kernel(pkey):
                _nk, sh = self._shift_vector(pkey, pv)
                if sh:
                    span.add(sh)
            if span.rank < kdim:
                failures.append((key, kdim, span.rank))
        return failures

    def surjectivity_report(self) -> SurjectivityReport:
        """The report of the checks piece by piece; its one margin is the
        first smallest of the per-piece margins in the oracle's walk order,
        by orbit key (base stem, line), then height."""
        rep = SurjectivityReport()
        lo, hi = self.window
        q = self.ctx.q
        margins = []
        for key in sorted(self._tgt_pieces):
            stem, line, s = key
            if not (lo <= stem <= hi):
                continue
            src, tgt = self._src_pieces.get(key, []), self._tgt_pieces[key]
            rep.pieces_checked += 1
            r = fplinalg.rank(self.matrix(key))
            margins.append((key, len(src) - len(tgt)))
            if r < len(tgt):
                rep.failures.append((key, len(tgt), r))

        def walk_order(piece_margin):
            (stem, line, s), _margin = piece_margin
            return stem - s * q, line, s

        rep.margins = _first_smallest(sorted(margins, key=walk_order))
        return rep


@pytest.fixture(scope="module")
def pages31():
    # levels 0..4 so that delta chains close; window deep enough to certify
    # torsion orders up to the B-exceptional value 67
    return PageSet(CTX3, 1, 4, (0, 340), 68)


def test_gr_can_identity_on_t_type(pages31):
    cls = (1, 2, 0, 1, 0)  # se(3)*t^2*l1 at level 1
    assert gr_can(cls, 0, pages31) == cls
    # one v1 higher the Tate class is dead, so the graded map vanishes
    assert gr_can(cls, 1, pages31) is None


def test_gr_can_zero_on_mu_type(pages31):
    assert gr_can((1, 0, 2, 0, 1), 1, pages31) is None


def test_gr_can_identity_includes_bottom_class(pages31):
    # t^0 = mu^0: the canonical map keeps the name (here it survives iff
    # the Tate class does; at level 1, twist 1 it does not)
    assert gr_can((1, 0, 0, 0, 0), 0, pages31) is None  # 0 is not congruent to -n*l*p^(n-1) mod p


def test_gr_phi_formula(pages31):
    # se(3)*mu at level 1: target exponent p^n l (p-1) - p j = 3
    assert gr_phi((1, 0, 1, 0, 0), 0, pages31) == (2, 3, 0, 0, 0)


def test_gr_phi_keeps_the_height(pages31):
    # v1 * se(3)*mu: the same target one v1 higher, t^4 mu at level 2
    target = (2, 3, 0, 0, 0)
    assert pages31.tate[2].alive(target, 1)
    assert gr_phi((1, 0, 1, 0, 0), 1, pages31) == target
    assert pages31.monomial(target, 1) == Monomial(2, 1, t_exp=4, mu_exp=1)


def test_gr_phi_zero_on_positive_t(pages31):
    assert gr_phi((1, 2, 0, 1, 0), 0, pages31) is None


def test_gr_phi_level_zero_bottom(pages31):
    assert gr_phi((0, 0, 0, 0, 0), 0, pages31) == (1, 2, 0, 0, 0)


def test_complete_to_kernel_two_component_chain(pages31):
    # the suspension generator's chain: se(l) + c * se(pl) t^(l(p-1))
    comps = complete_to_kernel((0, 0, 0, 0, 0), pages31)
    assert comps == [(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)]
    assert probe_element_torsion(pages31, comps) == 2


def test_complete_to_kernel_single_component(pages31):
    comps = complete_to_kernel((1, 1, 0, 1, 1), pages31)
    assert len(comps) == 1
    assert probe_element_torsion(pages31, comps) == 2  # p - i


def test_complete_to_kernel_delta_chain(pages31):
    # B at n=2, j = p(p-1) = 6 has three components (p | n+1)
    comps = complete_to_kernel((2, 0, 6, 0, 0), pages31)
    assert [cls[0] for cls in comps] == [2, 3, 4]
    assert comps[2][1] == 54  # the t exponent
    assert probe_element_torsion(pages31, comps) == 67


def test_complete_to_kernel_rejects_non_kernel_leading(pages31):
    # a t-type class whose canonical image survives is not a chain lead
    with pytest.raises(InvariantError):
        complete_to_kernel((1, 2, 0, 0, 0), pages31)


def test_complete_to_kernel_rejects_a_leading_term_divisible_by_v1(pages31):
    with pytest.raises(InputError, match="not pure"):
        complete_to_kernel((1, 3, 1, 1, 0), pages31)  # v1 * se(3)*t^2*l1
    # a class is read on the page of its own level only
    with pytest.raises(InputError, match="different page"):
        pages31.hfp[1].alive((2, 2, 0, 1, 0))


def test_a_chain_past_the_modeled_heights_is_refused():
    # stems up to 60 with torsion bound 0, v1 cutoff 4, certify no life
    # long enough for the torsion 67 of the delta chain at stem 54
    pages = PageSet(CTX3, 1, 4, (0, 60), 0)
    comps = complete_to_kernel((2, 0, 6, 0, 0), pages)
    message = "life of v1^0 * (2, 0, 6, 0, 0) is not certified on page Variant.HFP n=2: it reaches the v1 cutoff"
    with pytest.raises(InvariantError, match=re.escape(message)):
        probe_element_torsion(pages, comps)


def test_truncation_zero_is_shifted_thh():
    res = tr_gr_module(CTX3, 1, 0, (0, 26), mode="both")
    assert res.comparison.ok
    got = sorted((tuple(g.bidegree), g.torsion) for g in res.decomposition.generators_in((0, 14)))
    assert got == [((2, 0), 1), ((7, 1), 1), ((8, 0), 1), ((13, 1), 1), ((14, 0), 1)]


def test_oracle_matches_closed_small_grid():
    for p, ell, m in ((3, 1, 1), (3, 2, 2), (2, 1, 2), (2, 3, 1), (3, 1, TRUNC_INF)):
        ctx = PrimeContext(p)
        res = tr_gr_module(ctx, ell, m, (0, 60), mode="both")
        assert res.comparison.ok, (p, ell, m, res.comparison.dim_mismatches[:3])


def test_kernel_vectors_satisfy_equalizer():
    oracle = TrOracle(CTX3, 1, 2, (0, 40))
    lo, hi = oracle.window
    seen = 0
    for key in sorted(k for k in oracle._cols if lo <= k[0] <= hi):
        for vec in oracle.kernel(key):
            assert vec and mul_vec(oracle.matrix(key), vec) == {}
            seen += 1
    assert seen == len(oracle.generators()) > 0


def test_v1_surjectivity_of_kernel():
    oracle = TrOracle(CTX3, 1, 2, (0, 60))
    assert oracle.check_v1_surjectivity() == []


def test_surjectivity_report():
    rep = TrOracle(CTX3, 1, 2, (-20, 120)).surjectivity_report()
    assert rep.all_surjective and rep.pieces_checked > 0
    rep2 = TrOracle(PrimeContext(2), 1, 1, (0, 60)).surjectivity_report()
    assert rep2.all_surjective
    vac = TrOracle(CTX3, 1, 1, (10, 0)).surjectivity_report()
    assert vac.all_surjective and vac.pieces_checked == 0


@pytest.mark.parametrize("p, m, window", [(3, 2, (0, 60)), (2, TRUNC_INF, (-4, 80))], ids=["m2", "m-inf"])
def test_every_orbit_key_is_reduced_once(monkeypatch, p, m, window):
    # generators, both surjectivity checks and their failures come from one
    # walk, which builds each key's base matrix once
    calls = Counter()
    base = TrOracle._base

    def counting_base(oracle, key, *args):
        calls[key] += 1
        return base(oracle, key, *args)

    monkeypatch.setattr(TrOracle, "_base", counting_base)
    tr_gr_module(PrimeContext(p), 1, m, window, mode="oracle")
    assert calls and max(calls.values()) == 1


TR_DRAWS = st.tuples(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(0, 5),
    st.sampled_from((0, 1, 2, 3, TRUNC_INF)),
    st.integers(0, 150),
)


@settings(max_examples=100)
@given(TR_DRAWS)
def test_tr_oracle_equals_closed_families_with_both_surjectivity_checks(draw):
    p, i, m, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    res = tr_gr_module(PrimeContext(p), ell, m, (0, hi), mode="both", with_surjectivity=True)
    # tr_gr_module raises unless v1 is onto on the kernel; gr(phi - can)
    # must be onto every Tate piece
    assert res.comparison.ok, (res.comparison.dim_mismatches[:3], res.comparison.torsion_mismatches[:3])
    assert res.surjectivity.all_surjective, res.surjectivity.failures[:3]


@settings(max_examples=60)
@given(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(0, 4), st.sampled_from((0, 1, 2, 3, TRUNC_INF)),
                 st.integers(-12, 12), st.integers(0, 110)))
def test_orbit_reduction_equals_the_per_piece_reference(draw):
    p, i, m, lo, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    oracle = TrOracle(PrimeContext(p), ell, m, (lo, hi))
    ref = ReferenceOracle(oracle)
    got = Counter((tuple(g.bidegree), g.torsion) for g in oracle.generators())
    assert got == Counter((tuple(g.bidegree), g.torsion) for g in ref.generators())
    new, old = oracle.surjectivity_report(), ref.surjectivity_report()
    assert (new.pieces_checked, new.margins, new.failures) == (old.pieces_checked, old.margins, old.failures)
    assert oracle.check_v1_surjectivity() == ref.check_v1_surjectivity() == []


@settings(max_examples=80)
@given(TR_DRAWS, st.booleans())
def test_every_generator_torsion_is_the_probed_torsion_of_its_chain(draw, starved):
    # generators reads a torsion off its free column's alive top, the probe
    # asks each component's page for its life; a starved torsion bound
    # models so few heights that chains pass the cutoff, and a generator is
    # certified exactly where the probe of its chain answers, with its answer
    p, i, m, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    with pytest.MonkeyPatch.context() as mp:
        if starved:
            mp.setattr(trkernel, "_window_torsion_bound", lambda *args: 0)
        oracle = TrOracle(PrimeContext(p), ell, m, (0, hi))
    lo, hi = oracle.window
    probed = []
    for key in sorted(k for k in oracle._cols if lo <= k[0] <= hi):
        for vec in oracle.kernel(key):
            try:
                probed.append((probe_element_torsion(oracle.pages, [oracle._cols[key][j][1] for j in vec]), True))
            except InvariantError as exc:
                assert "is not certified on page Variant.HFP" in str(exc)
                probed.append((min(oracle._cols[key][max(vec)][0], oracle.pages.v1_cutoff), False))
    assert [(gen.torsion, gen.certified) for gen in oracle.generators()] == probed


def test_an_undersized_torsion_bound_leaves_generators_uncertified_and_is_refused(capsys, monkeypatch):
    # at the real bound the cutoff is 119; at 54 it is 58, and the chains at
    # (66, 0) and (67, 1), alive up to 94 below the modeled boundary, pass it
    monkeypatch.setattr(trkernel, "_window_torsion_bound", lambda *args: 54)
    oracle = TrOracle(PrimeContext(2), 1, TRUNC_INF, (0, 100))
    assert oracle.pages.v1_cutoff == 58
    uncertified = [g for g in oracle.generators() if not g.certified]
    assert [(tuple(g.bidegree), g.torsion) for g in uncertified] == [((66, 0), 58), ((67, 1), 58)]
    assert [oracle._cols[g.bidegree][-1][0] for g in uncertified] == [94, 94]
    message = "generator l1:ker:L6:se(1p^6)*t^32*l1*u6@66,0 at (66, 0) has only a lower bound on its torsion"
    with pytest.raises(InvariantError) as exc:
        tr_gr_module(PrimeContext(2), 1, TRUNC_INF, (0, 100), mode="oracle")
    assert str(exc.value) == message
    assert main(["tr", "--p", "2", "--ell", "1", "--deg-max", "100", "--mode", "oracle"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"verification failure: {message}\n")


@settings(max_examples=60)
@given(st.sampled_from((2, 3, 5, 7)).flatmap(lambda p: st.tuples(
    st.just(p), st.sampled_from([ell for ell in range(1, 7) if ell % p]), st.sampled_from((0, 1, 2, 3, TRUNC_INF)),
    st.integers(0, 300))))
@example((2, 5, TRUNC_INF, 300))
@example((7, 6, TRUNC_INF, 300))
def test_every_generator_is_certified_at_the_window_torsion_bound(draw):
    # the real bound sizes the pages so that no chain passes the cutoff or
    # the modeled boundary, at the primes the acceptance grids reach and at
    # p = 5, 7, which only the headline tables reach
    p, ell, m, hi = draw
    gens = TrOracle(PrimeContext(p), ell, m, (0, hi)).generators()
    assert all(g.certified for g in gens), [(str(g.label), g.torsion) for g in gens if not g.certified][:3]


@settings(max_examples=30)
@given(TR_DRAWS)
def test_a_generator_label_reads_as_its_text(draw):
    # a label is kept as its free class and orbit key; the text a message or
    # the distinct-label refusal reads is ker:L{level}:{monomial}@{stem},{line}
    p, i, m, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    oracle = TrOracle(PrimeContext(p), ell, m, (0, hi))
    lo, hi = oracle.window
    texts = []
    for (stem, line) in sorted(k for k in oracle._cols if lo <= k[0] <= hi):
        for vec in oracle.kernel((stem, line)):
            free = oracle._cols[(stem, line)][max(vec)][1]
            texts.append(f"ker:L{free[0]}:{oracle.pages.monomial(free)}@{stem},{line}")
    gens = oracle.generators()
    assert [str(g.label) for g in gens] == texts
    assert len(oracle.decomposition()) == len(gens)
    for g, text in zip(gens, texts):
        with pytest.raises(InvariantError) as exc:
            torsion_multiset([g._replace(certified=False)], f"l{ell}:")
        assert str(exc.value) == f"generator l{ell}:{text} at {tuple(g.bidegree)} has only a lower bound on its torsion"
    if gens:
        # a second generator with the same key, made afresh, is refused by its text
        again = Generator(KernelLabel(tuple(gens[-1].label)), Bidegree(0, 0), 1)
        with pytest.raises(InvariantError) as exc:
            CyclicDecomposition([*gens, again])
        assert str(exc.value) == f"duplicate generator labels: {[texts[-1]]}"


@st.composite
def sparse_matrices(draw):
    """(p, entries, row_stops, col_stops): a matrix over F_p of at most 6 x
    6, with rows and columns alive below their stops and columns ordered by
    stop.  A quarter of the draws are partial permutations, a quarter have
    at most one entry per column on repeated rows, a quarter are chains (k
    rows, k + 1 columns of one entry each, one row hit twice), and the rest
    are any matrix."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    kind = draw(st.sampled_from(("permutation", "column", "chain", "any")))
    if kind == "chain":
        n_rows = draw(st.integers(1, 5))
        n_cols = n_rows + 1
    else:
        n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row_stops = draw(st.lists(st.integers(1, 8), min_size=n_rows, max_size=n_rows))
    col_stops = sorted(draw(st.lists(st.integers(1, 8), min_size=n_cols, max_size=n_cols)))
    residue = st.integers(1, p - 1)
    if kind == "permutation":  # possibly empty
        pairs = zip(draw(st.permutations(range(n_rows))), draw(st.permutations(range(n_cols))))
        entries = {pair: draw(residue) for pair in pairs if draw(st.booleans())}
    elif kind == "column" and n_rows:
        row = st.integers(0, n_rows - 1)
        entries = {(draw(row), j): draw(residue) for j in range(n_cols) if draw(st.booleans())}
    elif kind == "chain":
        targets = draw(st.permutations([*range(n_rows), draw(st.integers(0, n_rows - 1))]))
        entries = {(i, j): draw(residue) for j, i in enumerate(targets)}
    else:
        cells = st.tuples(st.integers(0, max(n_rows - 1, 0)), st.integers(0, max(n_cols - 1, 0)))
        entries = draw(st.dictionaries(cells, residue, max_size=12 if n_rows and n_cols else 0))
    return p, entries, row_stops, col_stops


def _eliminated(p, entries, row_stops, col_stops) -> tuple:
    """The rank lives and kernel basis of a matrix by full elimination."""
    matrix = fplinalg.FpMatrix(p, len(row_stops), len(col_stops), entries)
    return trkernel._echelon_lives(p, entries, row_stops, col_stops), fplinalg.kernel_basis(matrix)


@settings(max_examples=400)
@given(sparse_matrices())
def test_one_entry_per_column_skips_the_elimination_with_the_same_results(draw):
    p, entries, row_stops, col_stops = draw
    one_per_column = len({j for _i, j in entries}) == len(entries)
    found = trkernel._one_per_column(p, entries, row_stops, col_stops)
    assert (found is not None) == one_per_column
    if found is not None:
        assert found == _eliminated(p, entries, row_stops, col_stops)


@pytest.mark.parametrize("m", [0, 1, 2, 3, TRUNC_INF], ids=["m0", "m1", "m2", "m3", "m-inf"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_orbit_key_is_reduced_as_by_elimination(p, m):
    # the column rule on the oracles' own base matrices, at twists 1 and 2
    repeated_rows = 0
    for ell in (1, 2 if p > 2 else 3):
        oracle = TrOracle(PrimeContext(p), ell, m, (-8, 90))
        for key in oracle._cols.keys() | oracle._rows.keys():
            start, col_stops, row_stops = oracle._stops(key[0], oracle._cols.get(key, ()), oracle._rows.get(key, ()))
            entries, lives, kernel = oracle._base(key, start, col_stops, row_stops)
            assert (lives, kernel) == _eliminated(p, entries, row_stops, col_stops), key
            one_per_column = len({j for _i, j in entries}) == len(entries)
            repeated_rows += one_per_column and len({i for i, _j in entries}) < len(entries)
    assert repeated_rows or m == 0


def _orbits(res, window):
    """(stem0, base, heights, top) over the survivor v1-orbits of a page in
    a stem window, as EInfResult.orbits read them before land_orbits:
    ladders in key order, the base exponents (t, mu, lam, u), the range of
    the orbit's heights below the v1 cutoff whose stem lies in the window,
    and the exclusive top of its alive interval; an orbit that starts above
    its ladder's bottom raises."""
    page = res.page
    q, lo_pad = page.ctx.q, page.lo_pad
    for seg, delta, stem0, hs, ilo, top in res._survivors(window):
        h_lo = -((stem0 - lo_pad) // q)  # the bottom of SSPage._heights(stem0)
        if ilo != (h_lo if h_lo > 0 else 0):
            key = (seg.e1, seg.e2, delta)
            raise InvariantError(f"page {page.variant} n={page.n}: broken chain on ladder {key}")
        yield stem0, (seg.a_slope * delta, seg.b_slope * delta, seg.e1, seg.e2), hs, top


def _grouped(pages: dict, window, as_rows: bool) -> dict:
    """{orbit key: [(class, heights, top)]} over the _orbits of the pages
    {level: EInfResult}, grouped and sorted as TrOracle._assemble did
    before land_orbits: columns by (top, class), rows by class."""
    side: dict = {}
    for level, res in pages.items():
        for stem0, (t, mu, lam, u), heights, top in _orbits(res, window):
            side.setdefault((stem0, lam - u), []).append(((level, t, mu, lam, u), heights, top))
    for orbits in side.values():
        orbits.sort(key=(lambda o: o[0]) if as_rows else (lambda o: (o[2], o[0])))
    return side


def _as_landed(grouped: dict, span, as_rows: bool) -> dict:
    """grouped in land_orbits' form, (class, top) per row and (top, class)
    per column, after requiring each orbit's heights to be range(start,
    min(top, end)), (start, end) = span(stem) of its key's base stem."""
    out = {}
    for (stem, line), orbits in grouped.items():
        start, end = span(stem)
        assert [heights for _cls, heights, _top in orbits] == [range(start, min(top, end)) for _c, _h, top in orbits]
        out[(stem, line)] = [(cls, top) if as_rows else (top, cls) for cls, _heights, top in orbits]
    return out


def _landed(res, window, as_rows: bool) -> dict:
    """The key lists land_orbits lands for one page, each sorted."""
    keys: dict = {}
    res.land_orbits(window, keys, as_rows)
    return {key: sorted(orbits) for key, orbits in keys.items()}


def _span_of(q: int, window, cutoff: int):
    """span(stem): the first height and the end of an orbit of base stem
    stem read in window below the v1 cutoff."""
    lo, hi = window
    return lambda stem: (max(0, -((stem - lo) // q)), min(cutoff, (hi - stem) // q + 1))


def _reads_alike(res, window):
    """Require land_orbits to land, on both sides, the key lists of the
    _orbits grouping on one page, or to raise its InvariantError; return
    what the grouping gives."""
    span = _span_of(res.page.ctx.q, window, res.page.v1_cutoff)
    for as_rows in (False, True):
        want = _outcome(lambda: _as_landed(_grouped({res.page.n: res}, window, as_rows), span, as_rows))
        assert _outcome(_landed, res, window, as_rows) == want
    return want


def _split_a_landed_ladder(page, window) -> bool:
    """Split the first one-interval ladder read in window whose interval
    [lo, hi) lands three heights or more into [lo, lo + 1) and [lo + 2, hi),
    so that its second interval lands above the ladder's bottom; False
    where no ladder does."""
    q, cut = page.ctx.q, page.v1_cutoff
    span = _span_of(q, window, cut)
    for seg, indices in page._reach(window[0] - (cut - 1) * q, window[1]):
        for i in indices:
            lo, hi = seg.lo[i], seg.hi[i]
            first, end = span(seg.K + seg.stem_slope * (seg.deltas.start + i))
            if 0 <= lo and max(lo + 2, first) < min(hi, end):
                seg.store(i, [(lo, lo + 1), (lo + 2, hi)])
                return True
    return False


def _outcome(read, *args):
    """read(*args), or the type and message of the InvariantError it raises."""
    try:
        return read(*args)
    except InvariantError as exc:
        return InvariantError, str(exc)


@st.composite
def _tr_pages(draw):
    """(page, read window): a fixed-point page, or a Tate page above level
    0, at p in {2, 3, 5, 7}, n <= 4 and twist <= 6 on a window inside
    [-300, 300] with a cutoff up to 40, and a window inside the page's to
    read."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, 4))
    variant = draw(st.sampled_from([nygaard.Variant.HFP, nygaard.Variant.TATE] if n else [nygaard.Variant.HFP]))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, min(lo + 300, 300)))
    page = SSPage(PrimeContext(p), n, draw(st.integers(0, 6)), variant, (lo, hi), draw(st.integers(1, 40)))
    read_lo = draw(st.integers(lo, hi))
    return page, (read_lo, draw(st.integers(read_lo, hi)))


@settings(max_examples=150)
@given(_tr_pages())
def test_land_orbits_lands_what_the_orbits_grouping_lands(draw):
    page, window = draw
    res = nygaard.run_to_einf(page)
    _reads_alike(res, window)
    _reads_alike(res, page.window)
    # no page's window meets a split ladder's second interval, which would
    # start above the ladder's bottom; one made to is refused by both
    if _split_a_landed_ladder(page, window):
        assert _reads_alike(res, window)[0] is InvariantError


TR_ORACLE_JOBS = [(p, ell, m, 100 if m == TRUNC_INF else 200)
                  for p, ell in ((2, 1), (3, 1), (3, 2)) for m in (0, 1, 2, 3, TRUNC_INF)]


@pytest.mark.parametrize("p, ell, m, hi", TR_ORACLE_JOBS)
def test_every_tr_page_lands_what_the_orbits_grouping_lands(p, ell, m, hi):
    # the benchmark's fifteen TR oracles, page by page and assembled; each
    # key's _stops are the stops of the grouping's heights
    oracle = TrOracle(PrimeContext(p), ell, m, (0, hi))
    pages, window = oracle.pages, oracle.pages.window
    for res in (*pages.hfp.values(), *pages.tate.values()):
        _reads_alike(res, window)
    span = _span_of(oracle.ctx.q, window, pages.v1_cutoff)
    cols, rows = _grouped(pages.hfp, window, False), _grouped(pages.tate, window, True)
    assert (oracle._cols, oracle._rows) == (_as_landed(cols, span, False), _as_landed(rows, span, True))
    for key in cols.keys() | rows.keys():
        start = span(key[0])[0]
        col_stops, row_stops = ([hs.stop for _c, hs, _t in side.get(key, ())] for side in (cols, rows))
        assert oracle._stops(key[0], oracle._cols.get(key, ()), oracle._rows.get(key, ())) == (start, col_stops, row_stops)


def _bisection_walk(oracle) -> tuple:
    """(failures, pieces_checked, margins, v1 failures) of an oracle's
    checks, each count at each height by bisection on its sorted list; the
    margins are the first smallest per-piece margin in walk order."""
    q, window = oracle.ctx.q, oracle.window
    failures, margins, v1_failures, pieces = [], [], [], 0
    for key in sorted(oracle._cols.keys() | oracle._rows.keys()):
        start, col_ends, row_stops = oracle._stops(key[0], oracle._cols.get(key, ()), oracle._rows.get(key, ()))
        row_ends = sorted(row_stops)
        col_hs = orbit_heights(q, key[0], col_ends[-1] if col_ends else 0, window)
        row_hs = orbit_heights(q, key[0], row_ends[-1] if row_ends else 0, window)
        if not (col_hs or row_hs):
            continue
        _entries, lives, kernel = oracle._base(key, start, col_ends, row_stops)

        def above(ends, s):
            return len(ends) - bisect_right(ends, s)

        carried = []
        if col_hs and col_hs.start == 0:
            carried = sorted(col_ends[max(vec)] for vec in kernel)
            col_hs = col_hs[1:]
        for s in col_hs:
            kdim, up = above(col_ends, s) - above(lives, s), above(carried, s)
            if kdim > up:
                v1_failures.append(((key[0] + s * q, key[1], s), kdim, up))
        for s in row_hs:
            piece = (key[0] + s * q, key[1], s)
            n_rows, rank = above(row_ends, s), above(lives, s)
            pieces += 1
            margins.append((piece, above(col_ends, s) - n_rows))
            if rank < n_rows:
                failures.append((piece, n_rows, rank))
    return sorted(failures), pieces, _first_smallest(margins), sorted(v1_failures)


def _add_a_tate_only_class(monkeypatch):
    assemble = TrOracle._assemble

    def with_a_tate_only_class(oracle):
        assemble(oracle)
        lo, hi = oracle.window
        keys = [k for k in oracle._rows if lo <= k[0] <= hi]
        if keys:  # truncation 0 has no Tate page
            rows = oracle._rows[min(keys)]
            (level, *_rest), top = rows[0]
            rows.append(((level, 10**6, 0, 0, 0), top))

    monkeypatch.setattr(TrOracle, "_assemble", with_a_tate_only_class)


@settings(max_examples=60)
@given(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(0, 3), st.sampled_from((0, 1, 2, 3, TRUNC_INF)),
                 st.integers(-12, 12), st.integers(0, 90)),
       st.sampled_from(("none", "tate-only-class", "late-kernel-bar")))
def test_the_pointer_sweep_lists_what_a_bisection_walk_lists(draw, fault):
    p, i, m, lo, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    with pytest.MonkeyPatch.context() as mp:
        if fault == "tate-only-class":
            _add_a_tate_only_class(mp)
        elif fault == "late-kernel-bar":
            _end_the_tate_classes_at_height_one(mp)
        oracle = TrOracle(PrimeContext(p), ell, m, (lo, hi))
    rep = oracle.surjectivity_report()
    got = (rep.failures, rep.pieces_checked, rep.margins, oracle.check_v1_surjectivity())
    assert got == _bisection_walk(oracle)


def _add_tate_only_rows(monkeypatch):
    # a Tate row no image reaches, alive two heights past the column's top,
    # joins each key of one column and no row, and a key of one such row and
    # no column is made beside it and two heights below the window
    assemble = TrOracle._assemble

    def with_tate_only_rows(oracle):
        assemble(oracle)
        oracle._rows[(oracle.window[0] - 2 * oracle.ctx.q, 5)] = [((0, 10**6, 2, 0, 0), 4)]
        for (stem, line), cols in list(oracle._cols.items()):
            if len(cols) == 1 and (stem, line) not in oracle._rows:
                top, (level, *_rest) = cols[0]
                oracle._rows[(stem, line)] = [((level, 10**6, 0, 0, 0), top + 2)]
                oracle._rows[(stem, line + 4)] = [((level, 10**6, 1, 0, 0), top + 2)]

    monkeypatch.setattr(TrOracle, "_assemble", with_tate_only_rows)


def _hit_one_row_twice(monkeypatch):
    # phi sends each t-type class above level 0 to its can image, itself,
    # so below the top level the two images of its column cancel on one row
    phi = trkernel.phi_image
    monkeypatch.setattr(trkernel, "phi_image", lambda cls, pages: cls if cls[0] and not cls[2] else phi(cls, pages))


def _drop_the_one_rows(monkeypatch):
    # the row of every key of one column and one row goes, though its class
    # is alive on its page wherever a can or phi image names it
    assemble = TrOracle._assemble

    def without_the_one_rows(oracle):
        assemble(oracle)
        for key, cols in oracle._cols.items():
            if len(cols) == 1 and len(oracle._rows.get(key, ())) == 1:
                del oracle._rows[key]

    monkeypatch.setattr(TrOracle, "_assemble", without_the_one_rows)


def _one_visit(oracle, key) -> tuple:
    """What one _visit of an orbit key adds to a fresh report: its
    generators' texts, bidegrees and torsions, failures, smallest margin,
    pieces checked and v1 failures; or the InvariantError it raises."""
    gens, rep, v1_failures = [], SurjectivityReport(), []
    try:
        oracle._visit(key, oracle._cols.get(key, ()), oracle._rows.get(key, ()), gens, rep, v1_failures)
    except InvariantError as exc:
        return "raises", str(exc)
    return ([(str(g.label), g.bidegree, g.torsion) for g in gens], rep.failures, rep.margins,
            rep.pieces_checked, v1_failures)


def _base_or_raise(base, *args) -> tuple:
    try:
        return base(*args)
    except InvariantError as exc:
        return "raises", str(exc)


SMALL_KEY_FAULTS = {
    "none": None,
    "tate-only-row": _add_tate_only_rows,
    "zero-entry": _hit_one_row_twice,
    "column-after-its-row": lambda mp: _end_the_tate_classes_at_height_one(mp),
    "missing-row": _drop_the_one_rows,
}


def _small_keys_as_by_base(p, i, m, window, fault) -> Counter:
    """Require each orbit key of at most one column and one row of a faulted
    oracle to be decided by _small_base as by _base, and visited alike with
    either; count the keys by (columns, rows, outcome)."""
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    seen = Counter()
    with pytest.MonkeyPatch.context() as mp:
        if SMALL_KEY_FAULTS[fault]:
            SMALL_KEY_FAULTS[fault](mp)
        oracle = TrOracle(PrimeContext(p), ell, m, window)
        for key in sorted(oracle._cols.keys() | oracle._rows.keys()):
            cols, rows = oracle._cols.get(key, ()), oracle._rows.get(key, ())
            if len(cols) > 1 or len(rows) > 1:
                continue
            start, col_stops, row_stops = oracle._stops(key[0], cols, rows)
            small = _base_or_raise(oracle._small_base, cols, rows, start, col_stops, row_stops)
            assert small == _base_or_raise(oracle._base, key, start, col_stops, row_stops), key
            visited = _one_visit(oracle, key)
            with pytest.MonkeyPatch.context() as by_base:
                by_base.setattr(oracle, "_small_base",
                                lambda _cols, _rows, *span, key=key: oracle._base(key, *span))
                assert visited == _one_visit(oracle, key), key
            if small[0] == "raises":
                outcome = "raises"
            elif not small[0]:
                outcome = "zero"
            else:
                outcome = "column-outlives-row" if col_stops[0] > row_stops[0] else "rank"
            seen[(len(cols), len(rows), outcome)] += 1
    return seen


@settings(max_examples=100)
@given(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(0, 3), st.sampled_from((0, 1, 2, 3, TRUNC_INF)),
                 st.integers(-12, 12), st.integers(0, 90)),
       st.sampled_from(sorted(SMALL_KEY_FAULTS)))
def test_a_key_of_one_column_and_one_row_is_decided_as_by_its_base_matrix(draw, fault):
    p, i, m, lo, hi = draw
    _small_keys_as_by_base(p, i, m, (lo, hi), fault)


@pytest.mark.parametrize("fault, case", [
    ("none", (1, 1, "rank")),
    ("none", (1, 0, "zero")),
    ("tate-only-row", (0, 1, "zero")),
    ("tate-only-row", (1, 1, "zero")),
    ("zero-entry", (1, 1, "zero")),
    ("column-after-its-row", (1, 1, "column-outlives-row")),
    ("missing-row", (1, 0, "raises")),
])
def test_every_small_key_case_is_met(fault, case):
    # each case the arithmetic path tells apart, met on one oracle
    assert _small_keys_as_by_base(3, 0, 2, (0, 40), fault)[case]


@pytest.fixture
def tate_only_class(monkeypatch):
    """Every TrOracle with a Tate piece in its window gets one Tate class
    no source class maps to, so gr(phi - can) is not onto that piece."""
    _add_a_tate_only_class(monkeypatch)


def _drop_a_phi_entry(monkeypatch):
    # se(1)*mu at level 0 is the only class that reaches the Tate class
    # se(3)*t^-1 at (8, 0), through phi; phi_image names the image for both
    # gr_phi and the oracle's base matrices
    phi = trkernel.phi_image
    monkeypatch.setattr(trkernel, "phi_image", lambda cls, pages: None if cls == (0, 0, 1, 0, 0) else phi(cls, pages))
    return re.escape("not onto the Tate piece at ((8, 0, 0)")


def _kill_a_tate_row(monkeypatch):
    # se(3)*t^2 at (2, 0) is the phi image of se(1) and the can image of itself
    assemble = TrOracle._assemble

    def without_the_row(oracle):
        assemble(oracle)
        rows = oracle._rows[(2, 0)]
        rows[:] = [r for r in rows if r[0] != (1, 2, 0, 0, 0)]

    monkeypatch.setattr(TrOracle, "_assemble", without_the_row)
    return re.escape("phi image se(1p^1)*t^2 missing from Tate basis")


def _cut_a_tate_row_short(monkeypatch):
    # se(9)*t^-6 at (30, 0), the phi image of se(3)*mu^4, is alive at
    # heights 0..2 of the window on its page, as its column is; its row now
    # stops at height 2 while the page still has it alive there
    assemble = TrOracle._assemble

    def with_a_short_row(oracle):
        assemble(oracle)
        rows = oracle._rows[(30, 0)]
        k = next(k for k, (cls, _top) in enumerate(rows) if cls == (2, -6, 0, 0, 0))
        _start, _col_stops, row_stops = oracle._stops(30, (), rows)
        rows[k] = (rows[k][0], row_stops[k] - 1)

    monkeypatch.setattr(TrOracle, "_assemble", with_a_short_row)
    return re.escape("phi image se(1p^2)*t^-6 missing from Tate basis")


def _end_the_tate_classes_at_height_one(monkeypatch):
    # every Tate class dies at height 1, so a fixed-point class that lives
    # on joins the kernel there: se(9)*t^15*l1*u2, whose can image reached
    # height 3, is in the kernel at height 2 (stem 0), the window's bottom
    init = PageSet.__init__

    def capped(pages, *args):
        init(pages, *args)
        for res in pages.tate.values():
            for seg in res.page._all_segments():
                for i in range(len(seg.deltas)):
                    seg.store(i, [(lo, min(hi, lo + 1)) for lo, hi in seg.intervals(i)])

    monkeypatch.setattr(PageSet, "__init__", capped)
    return re.escape("v1 not surjective on the kernel at [((0, 0, 2), 1, 0)")


def _trim_a_ladder_bottom(monkeypatch, side: str, level: int, delta: int):
    # the ladder (0, 0, delta) of the level's fixed-point or Tate page loses
    # its bottom height, so its orbit starts above the bottom of its ladder
    init = PageSet.__init__

    def trimmed(pages, *args):
        init(pages, *args)
        seg = getattr(pages, side)[level].page._segment_of(0, 0, delta)
        i = delta - seg.deltas.start
        (lo, hi), *rest = seg.intervals(i)
        seg.store(i, [(lo + 1, hi), *rest])

    monkeypatch.setattr(PageSet, "__init__", trimmed)
    return re.escape(f"page {nygaard.Variant(side)} n={level}: broken chain on ladder (0, 0, {delta})")


def _start_an_orbit_above_its_bottom(monkeypatch):
    # se(3)*mu at level 1, which the oracle reads as a column at stems 16..24
    return _trim_a_ladder_bottom(monkeypatch, "hfp", 1, -1)


def _start_a_tate_orbit_above_its_bottom(monkeypatch):
    # se(9)*t^3 at level 2, which the oracle reads as a row at stems 12..24
    return _trim_a_ladder_bottom(monkeypatch, "tate", 2, 3)


@pytest.mark.parametrize("mutant", [_drop_a_phi_entry, _kill_a_tate_row, _cut_a_tate_row_short,
                                    _end_the_tate_classes_at_height_one, _start_an_orbit_above_its_bottom,
                                    _start_a_tate_orbit_above_its_bottom],
                         ids=["drop-phi-entry", "kill-tate-row", "short-tate-row", "late-kernel-bar", "broken-chain",
                              "broken-tate-chain"])
def test_every_tr_check_fires(mutant, monkeypatch, capsys):
    message = mutant(monkeypatch)
    with pytest.raises(InvariantError, match=message):
        tr_gr_module(CTX3, 1, 2, (0, 40), mode="oracle")
    code = main(["tr", "--p", "3", "--ell", "1", "--m", "2", "--deg-max", "40", "--mode", "oracle"])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and out.err.startswith("verification failure: ")


def test_a_tate_only_class_lists_its_one_piece(tate_only_class):
    oracle = TrOracle(CTX3, 1, 2, (0, 40))
    rep = oracle.surjectivity_report()
    assert (rep.failures, rep.pieces_checked, rep.margins) == ([((1, 1, 0), 2, 1)], 59, {(1, 1, 0): -1})
    assert oracle.check_v1_surjectivity() == []


def test_a_late_kernel_bar_lists_every_piece_it_reaches(monkeypatch):
    # each failing piece is (stem, line, s) with its kernel dim and the dim
    # v1 carries up from height 0; v1 is tested from the orbit's bottom
    _end_the_tate_classes_at_height_one(monkeypatch)
    oracle = TrOracle(CTX3, 1, 2, (0, 40))
    rep = oracle.surjectivity_report()
    assert (rep.failures, rep.pieces_checked) == ([], 27)
    one = [(0, 0, 2), (1, 1, 2), (2, 0, 2), (3, 1, 1), (6, 0, 3), (7, 1, 2), (8, 0, 1), (9, 1, 1), (11, 1, 3),
           (12, 0, 2), (13, 1, 2), (34, 0, 1), (38, 0, 2)]
    two = [(14, 0, 1), (15, 1, 1), (16, 0, 1), (18, 0, 2), (19, 1, 2), (20, 0, 2), (21, 1, 1), (24, 0, 3),
           (25, 1, 2), (26, 0, 1), (27, 1, 1), (29, 1, 3), (30, 0, 2), (31, 1, 2), (32, 0, 1), (33, 1, 1),
           (36, 0, 2), (37, 1, 2), (39, 1, 1)]
    want = sorted([(piece, 1, 0) for piece in one] + [(piece, 2, 1) for piece in two])
    assert len(want) == 32 and oracle.check_v1_surjectivity() == want


def test_a_tate_only_class_fails_every_oracle_run(tate_only_class, capsys):
    # no oracle table may be built on a piece gr(phi - can) does not reach
    with pytest.raises(InvariantError, match="not onto the Tate piece"):
        tr_gr_module(CTX3, 1, 2, (0, 40), mode="oracle")
    code = main(["tr", "--p", "3", "--ell", "1", "--m", "2", "--deg-max", "40", "--mode", "oracle"])
    assert code == 3 and capsys.readouterr().out == ""


def test_verify_records_a_failed_oracle_run_and_goes_on(tate_only_class, capsys):
    argv = ["verify", "--suite", "all", "--p", "3", "--n-max", "1", "--ell-max", "1", "--m-max", "1", "--deg-max", "40"]
    assert main(argv) == 3
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["ok"] is False
    assert out.err.splitlines() == [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['suite']}: {c['name']}" + (f"  [{c['detail']}]" if not c["passed"] else "")
        for c in report["checks"]
    ]
    by_suite = {}
    for c in report["checks"]:
        by_suite.setdefault(c["suite"], []).append(c)
    # the suites that build no TrOracle pass, and so does truncation 0,
    # which has no Tate page; every other oracle run fails its check
    assert len(by_suite["einf"]) == 6 and len(by_suite["families"]) == 4
    assert all(c["passed"] for c in by_suite["einf"] + by_suite["families"])
    assert [(c["name"], c["passed"]) for c in by_suite["tr"]] == [
        ("AC3 p=3 l=1 m=0 oracle=closed", True),
        ("AC4 p=3 l=1 m=0 gr(phi-can) surjective (0 pieces)", True),
        ("AC4 p=3 l=1 m=1 gr(phi-can) surjective", False),
    ]
    assert [c["name"] for c in by_suite["assembly"]] == ["AC6 p=3 two-line check, stems<=40"]
    for c in by_suite["tr"][2:] + by_suite["assembly"]:
        assert not c["passed"] and c["detail"].startswith("gr(phi - can) not onto the Tate piece at")


def test_both_mode_raises_at_the_first_mismatch(monkeypatch, capsys):
    closed = trkernel.tr_closed_decomposition

    def drop_lowest(ctx, ell, trunc, hi):
        multiset = closed(ctx, ell, trunc, hi)
        return multiset - Counter([min(multiset)])

    monkeypatch.setattr(trkernel, "tr_closed_decomposition", drop_lowest)
    # the dropped generator, B[n0,l1]j0e0, sits at (2, 0)
    first = "twist l=1: oracle and closed form disagree at ((2, 0), 1, 0)"
    with pytest.raises(VerificationFailure) as exc:
        tr_gr_module(CTX3, 1, 1, (0, 30), mode="both")
    assert str(exc.value) == first
    code = main(["tr", "--p", "3", "--ell", "1", "--m", "1", "--deg-max", "30"])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and out.err == f"verification failure: {first}\n"


def test_page_guards_all_fire_before_the_first_page(monkeypatch):
    built = []
    build = SSPage._build

    def counting_build(page):
        built.append((page.n, page.variant, page.ladder_count))
        build(page)

    monkeypatch.setattr(SSPage, "_build", counting_build)
    args = (PrimeContext(2), 1, TRUNC_INF, (0, 60))
    TrOracle(*args)
    counts = sorted(count for _n, _v, count in built)
    top = max(n for n, _v, _c in built)
    assert (top, nygaard.Variant.TATE, counts[-1]) in built and counts[-2] < counts[-1]
    # only the top page is too large, and it is built last
    monkeypatch.setattr(nygaard, "MAX_LADDERS", counts[-1] - 1)
    built.clear()
    with pytest.raises(ResourceError):
        TrOracle(*args)
    assert built == []


def test_every_page_is_placed_once(monkeypatch):
    # the size guard's placement is the one the page is built from
    placed = []
    cone = SSPage._cone

    def counting_cone(page, *args):
        placed.append(page)
        return cone(page, *args)

    monkeypatch.setattr(SSPage, "_cone", counting_cone)
    pages = PageSet(CTX3, 1, 3, (0, 60), 10)
    built = [res.page for res in (*pages.hfp.values(), *pages.tate.values())]
    assert len(built) == 7 and Counter(map(id, placed)) == Counter(map(id, built))


def test_twist_validation():
    with pytest.raises(InputError):
        tr_gr_module(CTX3, 3, 1, (0, 20))
    with pytest.raises(InputError):
        tr_gr_module(CTX3, 1, -1, (0, 20), mode="oracle")
    with pytest.raises(InputError):
        tr_gr_module(CTX3, 1, 1, (0, 20), mode="sideways")


def test_chain_solver_agrees_with_enumerator():
    for p, ell, top in ((2, 3, 60), (3, 2, 90), (5, 2, 90), (7, 2, 90)):
        ctx = PrimeContext(p)
        elems = enumerate_families(ctx, ell, TRUNC_INF, (0, top))
        levels = max(e.n for e in elems) + 2
        maxtors = max(e.torsion for e in elems)
        pages = PageSet(ctx, ell, levels, (0, top), maxtors)
        for el in elems:
            comps = complete_to_kernel(el.leading(), pages)
            assert comps == list(el.components), (p, el.label())
            assert probe_element_torsion(pages, comps) == el.torsion, (p, el.label())
