"""Per-layer tracing of synlab from outside the program.

Tracer.install() wraps the public functions of each synlab module (its
layers) at every import site: module functions are replaced wherever a
synlab module holds them by name, methods are replaced on their class.
Each call records a span (group, parent span, duration) in memory; a
layer's self time is the duration of its spans minus that of their child
spans.  Counts that need extra work, such as the ladder snapshots behind
nygaard.ladders_changed, are gathered outside the span's clock and their
cost is taken out of every enclosing span as well.

Only calls made while `enabled` is set are traced, so the benchmark's own
checks on a job's output stay out of the numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array

WIDE_SPAN = 64  # spans wider than this many columns count as wide

LAYERS = ("nygaard", "trkernel", "fplinalg", "closedforms", "graded", "assembly", "cache", "cli", "verify")

# (module, attribute, span group); the layer is the part of the group before the dot
TARGETS = (
    ("synlab.nygaard", "SSPage.__init__", "nygaard.page_build"),
    ("synlab.nygaard", "SSPage.run_stage", "nygaard.stage_sweep"),
    ("synlab.nygaard", "EInfResult.dim_table", "nygaard.einf_extract"),
    ("synlab.nygaard", "EInfResult.classes", "nygaard.einf_extract"),
    ("synlab.nygaard", "EInfResult.decomposition", "nygaard.einf_extract"),
    ("synlab.nygaard", "EInfResult.alive", "nygaard.einf_extract"),
    ("synlab.nygaard", "EInfResult.life", "nygaard.einf_extract"),
    ("synlab.nygaard", "run_to_einf_dense", "nygaard.dense"),
    ("synlab.trkernel", "PageSet.__init__", "trkernel.page_set"),
    ("synlab.trkernel", "TrOracle.__init__", "trkernel.oracle_init"),
    ("synlab.trkernel", "TrOracle.matrix", "trkernel.matrix"),
    ("synlab.trkernel", "TrOracle.kernel", "trkernel.kernel"),
    ("synlab.trkernel", "TrOracle.generators", "trkernel.generators"),
    ("synlab.trkernel", "TrOracle.decomposition", "trkernel.generators"),
    ("synlab.trkernel", "TrOracle.check_v1_surjectivity", "trkernel.v1_surj"),
    ("synlab.trkernel", "TrOracle.surjectivity_report", "trkernel.surj_report"),
    ("synlab.trkernel", "tr_gr_module", "trkernel.tr_gr_module"),
    ("synlab.fplinalg", "kernel_basis", "fplinalg.kernel"),
    ("synlab.fplinalg", "rank", "fplinalg.rank"),
    ("synlab.fplinalg", "solve", "fplinalg.solve"),
    ("synlab.fplinalg", "subquotient", "fplinalg.subquotient"),
    ("synlab.fplinalg", "VectorSpan.__init__", "fplinalg.span"),
    ("synlab.fplinalg", "VectorSpan.add", "fplinalg.span"),
    ("synlab.fplinalg", "VectorSpan.reduce", "fplinalg.span"),
    ("synlab.fplinalg", "VectorSpan.contains", "fplinalg.span"),
    ("synlab.closedforms", "enumerate_families", "closedforms.families"),
    ("synlab.closedforms", "tr_closed_decomposition", "closedforms.families"),
    ("synlab.closedforms", "einf_closed", "closedforms.einf_closed"),
    ("synlab.graded", "CyclicDecomposition.direct_sum", "graded.direct_sum"),
    ("synlab.graded", "CyclicDecomposition.dims", "graded.dims"),
    ("synlab.graded", "CyclicDecomposition.generators_in", "graded.other"),
    ("synlab.graded", "DimTable.same_entries", "graded.other"),
    ("synlab.graded", "DimTable.to_json", "graded.other"),
    ("synlab.graded", "DimTable.to_csv", "graded.other"),
    ("synlab.assembly", "tc_zp_dims", "assembly.tables"),
    ("synlab.assembly", "tc_eps_dims", "assembly.tc_eps"),
    ("synlab.assembly", "syntomic_dims", "assembly.tables"),
    ("synlab.assembly", "tc_mod_dims", "assembly.tables"),
    ("synlab.assembly", "k_mod_dims", "assembly.tables"),
    ("synlab.assembly", "two_line_check", "assembly.tables"),
    ("synlab.cache", "cache_key", "cache.key"),
    ("synlab.cache", "lookup", "cache.lookup"),
    ("synlab.cache", "store", "cache.store"),
    ("synlab.cli", "build_parser", "cli.parser"),
    ("synlab.cli", "main", "cli.main"),
    ("synlab.verify", "run_suite", "verify.suite"),
    ("synlab.verify", "suite_einf", "verify.suite"),
    ("synlab.verify", "suite_families", "verify.suite"),
    ("synlab.verify", "suite_tr", "verify.suite"),
    ("synlab.verify", "suite_assembly", "verify.suite"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.groups: list = []
        self._group_id: dict = {}
        self.span_group = array("H")
        self.span_parent = array("l")
        self.span_dur = array("d")
        self._stack: list = []
        self._excluded = 0.0  # seconds spent gathering counts, kept out of spans
        self.counts: dict = {}
        self._oracle_seq = weakref.WeakKeyDictionary()
        self._matrix_keys: set = set()
        self._min_margin = None  # smallest surjectivity margin seen, if any
        self.missing: list = []
        self._hooks = {
            "SSPage.__init__": (None, self._post_page),
            "SSPage.run_stage": (self._pre_stage, self._post_stage),
            "EInfResult.classes": (None, self._post_classes),
            "run_to_einf_dense": (self._pre_dense, None),
            "TrOracle.__init__": (None, self._post_oracle),
            "TrOracle.matrix": (None, self._post_matrix),
            "TrOracle.surjectivity_report": (None, self._post_surj),
            "kernel_basis": (self._pre_fp_matrix, None),
            "rank": (self._pre_fp_matrix, None),
            "solve": (self._pre_fp_matrix, None),
            "subquotient": (self._pre_subquotient, None),
            "VectorSpan.__init__": (self._pre_span_init, None),
            "VectorSpan.add": (self._pre_span_op, None),
            "VectorSpan.reduce": (self._pre_span_op, None),
            "VectorSpan.contains": (self._pre_span_op, None),
            "enumerate_families": (None, self._post_families),
            "einf_closed": (None, self._post_einf_closed),
            "CyclicDecomposition.direct_sum": (None, self._post_direct_sum),
            "CyclicDecomposition.dims": (None, self._post_dims),
            "tc_eps_dims": (None, self._post_tc_eps),
            "lookup": (None, self._post_lookup),
            "store": (None, self._post_store),
            "main": (None, self._post_cli_main),
            "suite_einf": (None, self._post_suite),
            "suite_families": (None, self._post_suite),
            "suite_tr": (None, self._post_suite),
            "suite_assembly": (None, self._post_suite),
        }

    def _count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching -------------------------------------------------------

    def install(self):
        for modname, attr, group in TARGETS:
            mod = importlib.import_module(modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(name) if owner is not None else None
            if not inspect.isfunction(orig):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(orig, group, *self._hooks.get(attr, (None, None)))
            if owner_name:
                setattr(owner, name, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname == "synlab" or mname.startswith("synlab."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    def _wrap(self, fn, group, pre, post):
        gid = self._group_id.get(group)
        if gid is None:
            gid = self._group_id[group] = len(self.groups)
            self.groups.append(group)
        clock = time.perf_counter
        stack = self._stack
        span_group, span_parent, span_dur = self.span_group, self.span_parent, self.span_dur

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = None
            if pre is not None:
                t = clock()
                state = pre(args, kwargs)
                self._excluded += clock() - t
            idx = len(span_dur)
            span_group.append(gid)
            span_parent.append(stack[-1] if stack else -1)
            span_dur.append(0.0)
            stack.append(idx)
            excluded0 = self._excluded
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_dur[idx] = clock() - t0 - (self._excluded - excluded0)
                stack.pop()
            if post is not None:
                t = clock()
                post(args, kwargs, result, state)
                self._excluded += clock() - t
            return result

        return wrapper

    # -- count hooks (run outside the span clocks) ----------------------

    def _post_page(self, args, kwargs, result, state):
        self._count("nygaard.pages_built")
        self._count("nygaard.ladders_built", len(args[0].ladders))

    def _pre_stage(self, args, kwargs):
        ladders = args[0].ladders
        self._count("nygaard.ladder_stage_pairs", len(ladders))
        return [(lad, tuple(lad.alive)) for lad in ladders.values()]

    def _post_stage(self, args, kwargs, result, before):
        page = args[0]
        self._count("nygaard.stages_run")
        self._count("nygaard.ladders_changed", sum(1 for lad, alive in before if tuple(lad.alive) != alive))
        if len(page.stages_done) == len(page.stages):
            self._count("nygaard.alive_intervals", sum(len(lad.alive) for lad in page.ladders.values()))

    def _post_classes(self, args, kwargs, result, state):
        self._count("nygaard.einf_classes", len(result))

    def _pre_dense(self, args, kwargs):
        self._count("nygaard.dense_basis_elems", sum(lad.h_cap - lad.h_lo for lad in args[0].ladders.values()))

    def _post_oracle(self, args, kwargs, result, state):
        self._count("trkernel.oracles")
        self._oracle_seq[args[0]] = self.counts["trkernel.oracles"]

    def _post_matrix(self, args, kwargs, result, state):
        oracle, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
        self._count("trkernel.matrix_calls")
        self._count("trkernel.matrix_cells", result.rows * result.cols)
        self._matrix_keys.add((self._oracle_seq.get(oracle, -1), key))

    def _post_surj(self, args, kwargs, result, state):
        self._count("trkernel.surj_pieces", result.pieces_checked)
        if result.margins:
            low = min(result.margins.values())
            self._min_margin = low if self._min_margin is None else min(self._min_margin, low)

    def _pre_fp_matrix(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        self._count("fplinalg.calls")
        self._count("fplinalg.matrix_cells", m.rows * m.cols)

    def _pre_subquotient(self, args, kwargs):
        self._count("fplinalg.calls")
        if len(args) == 4:
            numerator, denominator, _p, ambient = args
            self._count("fplinalg.matrix_cells", (len(numerator) + len(denominator)) * ambient)

    def _pre_span_init(self, args, kwargs):
        dim = args[2] if len(args) > 2 else kwargs["dim"]
        self._count("fplinalg.spans")
        if dim > WIDE_SPAN:
            self._count("fplinalg.wide_spans")

    def _pre_span_op(self, args, kwargs):
        self._count("fplinalg.span_ops")

    def _post_families(self, args, kwargs, result, state):
        self._count("closedforms.family_elements", len(result))

    def _post_einf_closed(self, args, kwargs, result, state):
        self._count("closedforms.einf_gens", len(result))

    def _post_direct_sum(self, args, kwargs, result, state):
        self._count("graded.direct_sum_calls")
        self._count("graded.gens_copied", len(result))

    def _post_dims(self, args, kwargs, result, state):
        self._count("graded.table_cells", len(result.entries))

    def _post_tc_eps(self, args, kwargs, result, state):
        self._count("graded.final_gens", len(result))

    def _post_lookup(self, args, kwargs, result, state):
        if args[0]:
            self._count("cache.hits" if result is not None else "cache.misses")

    def _post_store(self, args, kwargs, result, state):
        if args[0]:
            self._count("cache.bytes_stored", len(args[2].encode()))

    def _post_cli_main(self, args, kwargs, result, state):
        self._count("cli.commands")

    def _post_suite(self, args, kwargs, result, state):
        self._count("verify.checks", len(result))
        self._count("verify.checks_failed", sum(1 for c in result if not c.passed))

    # -- metrics ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span group: duration minus child durations."""
        child = array("d", bytes(8 * len(self.span_dur)))
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_dur[i]
        out = {g: 0.0 for g in self.groups}
        for i, gid in enumerate(self.span_group):
            out[self.groups[gid]] += self.span_dur[i] - child[i]
        return out

    def _children_of(self, parent_group: str, child_group: str) -> int:
        pid, cid = self._group_id.get(parent_group), self._group_id.get(child_group)
        groups = self.span_group
        return sum(1 for i, par in enumerate(self.span_parent)
                   if par >= 0 and groups[i] == cid and groups[par] == pid)

    def totals(self) -> dict:
        """What this process saw, in a form that sums over processes."""
        out = {f"self:{g}": v for g, v in self.self_times().items()}
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        out["count:trkernel.matrix_keys"] = len(self._matrix_keys)
        out["count:assembly.twist_summands"] = self._children_of("assembly.tc_eps", "trkernel.tr_gr_module")
        out["count:trace.spans"] = len(self.span_dur)
        if self._min_margin is not None:
            out["min:trkernel.surj_min_margin"] = self._min_margin
        return out


def merge(totals: list) -> dict:
    """Totals of several processes as one: sums, and minimums for min: keys."""
    out: dict = {}
    for t in totals:
        for k, v in t.items():
            if k not in out:
                out[k] = v
            else:
                out[k] = min(out[k], v) if k.startswith("min:") else out[k] + v
    return out


def derive(totals: dict, traced_wall: float) -> dict:
    """Per-layer metrics from merged totals and the traced jobs' seconds."""

    def s(group):
        return totals.get(f"self:{group}", 0.0)

    def c(name):
        return totals.get(f"count:{name}", 0)

    layer_self = {layer: sum(v for k, v in totals.items() if k.startswith(f"self:{layer}.")) for layer in LAYERS}
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "nygaard.stage_sweep_s": s("nygaard.stage_sweep"),
        "nygaard.stages_run": c("nygaard.stages_run"),
        "nygaard.ladder_stage_pairs": c("nygaard.ladder_stage_pairs"),
        "nygaard.ladders_changed": c("nygaard.ladders_changed"),
        "nygaard.sweep_yield": _ratio(c("nygaard.ladders_changed"), c("nygaard.ladder_stage_pairs")),
        "nygaard.page_build_s": s("nygaard.page_build"),
        "nygaard.pages_built": c("nygaard.pages_built"),
        "nygaard.ladders_built": c("nygaard.ladders_built"),
        "nygaard.alive_intervals": c("nygaard.alive_intervals"),
        "nygaard.einf_extract_s": s("nygaard.einf_extract"),
        "nygaard.einf_classes": c("nygaard.einf_classes"),
        "nygaard.dense_s": s("nygaard.dense"),
        "nygaard.dense_basis_elems": c("nygaard.dense_basis_elems"),
        "trkernel.oracle_init_s": s("trkernel.oracle_init"),
        "trkernel.matrix_s": s("trkernel.matrix"),
        "trkernel.matrix_calls": c("trkernel.matrix_calls"),
        "trkernel.matrix_keys": c("trkernel.matrix_keys"),
        "trkernel.matrix_reuse": _ratio(c("trkernel.matrix_calls"), c("trkernel.matrix_keys")),
        "trkernel.matrix_cells": c("trkernel.matrix_cells"),
        "trkernel.kernel_s": s("trkernel.kernel"),
        "trkernel.v1_surj_s": s("trkernel.v1_surj"),
        "trkernel.surj_report_s": s("trkernel.surj_report"),
        "trkernel.surj_pieces": c("trkernel.surj_pieces"),
        "trkernel.surj_min_margin": totals.get("min:trkernel.surj_min_margin", 0),
        "fplinalg.kernel_s": s("fplinalg.kernel"),
        "fplinalg.rank_s": s("fplinalg.rank"),
        "fplinalg.subquotient_s": s("fplinalg.subquotient"),
        "fplinalg.span_s": s("fplinalg.span"),
        "fplinalg.calls": c("fplinalg.calls"),
        "fplinalg.span_ops": c("fplinalg.span_ops"),
        "fplinalg.matrix_cells": c("fplinalg.matrix_cells"),
        "fplinalg.wide_span_frac": _ratio(c("fplinalg.wide_spans"), c("fplinalg.spans")),
        "closedforms.families_s": s("closedforms.families"),
        "closedforms.family_elements": c("closedforms.family_elements"),
        "closedforms.einf_closed_s": s("closedforms.einf_closed"),
        "closedforms.einf_gens": c("closedforms.einf_gens"),
        "graded.direct_sum_s": s("graded.direct_sum"),
        "graded.direct_sum_calls": c("graded.direct_sum_calls"),
        "graded.gens_copied": c("graded.gens_copied"),
        "graded.copy_per_gen": _ratio(c("graded.gens_copied"), c("graded.final_gens")),
        "graded.dims_s": s("graded.dims"),
        "graded.table_cells": c("graded.table_cells"),
        "assembly.twist_summands": c("assembly.twist_summands"),
        "cache.lookup_s": s("cache.lookup"),
        "cache.store_s": s("cache.store"),
        "cache.hits": c("cache.hits"),
        "cache.misses": c("cache.misses"),
        "cache.hit_ratio": _ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
        "cache.bytes_stored": c("cache.bytes_stored"),
        "cli.commands": c("cli.commands"),
        "verify.checks": c("verify.checks"),
        "verify.checks_failed": c("verify.checks_failed"),
        "trace.unattributed_s": traced_wall - sum(layer_self.values()),
        "trace.spans": c("trace.spans"),
    })
    return out
