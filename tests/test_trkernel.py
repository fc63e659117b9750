import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synlab import fplinalg, nygaard, trkernel
from synlab.cli import main
from synlab.closedforms import TRUNC_INF, enumerate_families
from synlab.errors import InputError, InvariantError, ResourceError, VerificationFailure
from synlab.graded import Bidegree, Generator, Monomial, PrimeContext
from synlab.nygaard import SSPage
from synlab.trkernel import (
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
        rep = SurjectivityReport()
        lo, hi = self.window
        for key in sorted(self._tgt_pieces):
            stem, line, s = key
            if not (lo <= stem <= hi):
                continue
            src, tgt = self._src_pieces.get(key, []), self._tgt_pieces[key]
            rep.pieces_checked += 1
            r = fplinalg.rank(self.matrix(key))
            rep.margins[key] = len(src) - len(tgt)
            if r < len(tgt):
                rep.failures.append((key, len(tgt), r))
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
    # stems up to 60 with torsion bound 0 model too few heights for the
    # torsion 67 of the delta chain at stem 54
    pages = PageSet(CTX3, 1, 4, (0, 60), 0)
    comps = complete_to_kernel((2, 0, 6, 0, 0), pages)
    with pytest.raises(InvariantError, match="runs into the modeled boundary"):
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
    seen = 0
    for gen, key, vec in oracle.generators():
        assert vec and mul_vec(oracle.matrix(key), vec) == {}
        seen += 1
    assert seen > 0


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
    got = Counter((tuple(g.bidegree), g.torsion) for g, _key, _vec in oracle.generators())
    assert got == Counter((tuple(g.bidegree), g.torsion) for g in ref.generators())
    new, old = oracle.surjectivity_report(), ref.surjectivity_report()
    assert (new.pieces_checked, new.margins, new.failures) == (old.pieces_checked, old.margins, old.failures)
    assert oracle.check_v1_surjectivity() == ref.check_v1_surjectivity() == []


@settings(max_examples=80)
@given(TR_DRAWS, st.booleans())
def test_every_generator_torsion_is_the_probed_torsion_of_its_chain(draw, starved):
    # generators reads a torsion off its columns' alive tops, the probe asks
    # each component's page for its life; a starved torsion bound models so
    # few heights that chains run into the boundary, and both must refuse
    p, i, m, hi = draw
    ell = i + 1 + i // (p - 1)  # the i-th positive integer prime to p
    with pytest.MonkeyPatch.context() as mp:
        if starved:
            mp.setattr(trkernel, "_window_torsion_bound", lambda *args: 0)
        oracle = TrOracle(PrimeContext(p), ell, m, (0, hi))
    lo, hi = oracle.window
    probed = []
    try:
        for key in sorted(k for k in oracle._cols if lo <= k[0] <= hi):
            for vec in oracle.kernel(key):
                probed.append(probe_element_torsion(oracle.pages, [oracle._cols[key][j][0] for j in vec]))
    except InvariantError as exc:
        with pytest.raises(InvariantError, match=re.escape(str(exc))):
            oracle.generators()
    else:
        assert [gen.torsion for gen, _key, _vec in oracle.generators()] == probed


@st.composite
def sparse_matrices(draw):
    """(p, entries, row_stops, col_stops): a matrix over F_p of at most 6 x
    6, with rows and columns alive below their stops and columns ordered by
    stop; half the draws have at most one entry per row and per column."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row_stops = draw(st.lists(st.integers(1, 8), min_size=n_rows, max_size=n_rows))
    col_stops = sorted(draw(st.lists(st.integers(1, 8), min_size=n_cols, max_size=n_cols)))
    residue = st.integers(1, p - 1)
    if draw(st.booleans()):  # a partial permutation, possibly empty
        pairs = zip(draw(st.permutations(range(n_rows))), draw(st.permutations(range(n_cols))))
        entries = {pair: draw(residue) for pair in pairs if draw(st.booleans())}
    else:
        cells = st.tuples(st.integers(0, max(n_rows - 1, 0)), st.integers(0, max(n_cols - 1, 0)))
        entries = draw(st.dictionaries(cells, residue, max_size=12 if n_rows and n_cols else 0))
    return p, entries, row_stops, col_stops


@settings(max_examples=300)
@given(sparse_matrices())
def test_partial_permutations_skip_the_elimination_with_the_same_results(draw):
    p, entries, row_stops, col_stops = draw
    one_per_line = all(len({cell[axis] for cell in entries}) == len(entries) for axis in (0, 1))
    found = trkernel._partial_permutation(entries, row_stops, col_stops)
    assert (found is not None) == one_per_line
    if found is not None:
        lives, kernel = found
        assert lives == trkernel._echelon_lives(p, entries, row_stops, col_stops)
        assert kernel == fplinalg.kernel_basis(fplinalg.FpMatrix(p, len(row_stops), len(col_stops), entries))


@pytest.fixture
def tate_only_class(monkeypatch):
    """Every TrOracle with a Tate piece in its window gets one Tate class
    no source class maps to, so gr(phi - can) is not onto that piece."""
    assemble = TrOracle._assemble

    def with_a_tate_only_class(oracle):
        assemble(oracle)
        lo, hi = oracle.window
        keys = [k for k in oracle._rows if lo <= k[0] <= hi]
        if keys:  # truncation 0 has no Tate page
            rows = oracle._rows[min(keys)]
            (level, *_rest), heights, top = rows[0]
            rows.append(((level, 10**6, 0, 0, 0), heights, top))

    monkeypatch.setattr(TrOracle, "_assemble", with_a_tate_only_class)


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
        k = next(k for k, (cls, _hs, _top) in enumerate(rows) if cls == (2, -6, 0, 0, 0))
        cls, heights, top = rows[k]
        rows[k] = (cls, range(heights.start, heights.stop - 1), top)

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


def _start_an_orbit_above_its_bottom(monkeypatch):
    # se(3)*mu at level 1, ladder (0, 0, -1), loses its bottom height, so
    # its orbit, which the oracle reads at stems 16..24, starts above the
    # bottom of its ladder
    init = PageSet.__init__

    def trimmed(pages, *args):
        init(pages, *args)
        seg = pages.hfp[1].page._segment_of(0, 0, -1)
        i = -1 - seg.deltas.start
        (lo, hi), *rest = seg.intervals(i)
        seg.store(i, [(lo + 1, hi), *rest])

    monkeypatch.setattr(PageSet, "__init__", trimmed)
    return re.escape("n=1: broken chain on ladder (0, 0, -1)")


@pytest.mark.parametrize("mutant", [_drop_a_phi_entry, _kill_a_tate_row, _cut_a_tate_row_short,
                                    _end_the_tate_classes_at_height_one, _start_an_orbit_above_its_bottom],
                         ids=["drop-phi-entry", "kill-tate-row", "short-tate-row", "late-kernel-bar", "broken-chain"])
def test_every_tr_check_fires(mutant, monkeypatch, capsys):
    message = mutant(monkeypatch)
    with pytest.raises(InvariantError, match=message):
        tr_gr_module(CTX3, 1, 2, (0, 40), mode="oracle")
    code = main(["tr", "--p", "3", "--ell", "1", "--m", "2", "--deg-max", "40", "--mode", "oracle"])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and out.err.startswith("verification failure: ")


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
