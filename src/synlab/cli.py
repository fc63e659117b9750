"""Command line surface.

Commands: einf, tr, syntomic, tc, ktheory, betti-bound, verify.
Tables are emitted as JSON (the DimTable schema) or CSV with header
stem,line,weight,dim.  Exit codes: 0 success, 2 input error or a tripped
size guard, 3 a verification or cross-check failure.  Results can be
cached on disk with --cache-dir (or SYNLAB_CACHE); cache hits are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cache
from .assembly import AssemblyParams, betti_bound, k_mod_dims, syntomic_dims, tc_mod_dims
from .closedforms import TRUNC_INF, einf_closed_counted
from .errors import InputError, InvariantError, ResourceError, VerificationFailure
from .graded import PrimeContext, differences, orbit_dims
from .nygaard import SSPage, Variant, default_v1_cutoff, run_to_einf
from .trkernel import MODES, tr_gr_module
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

# The printed table, not the computation, sets a wide window's memory: at
# one or two cells a stem, tr --p 7 --ell 1 --mode closed over 300,000
# stems takes 4.6 s and 417 MB as JSON (einf --p 3 --n 1 --ell 1 --mode
# closed 4.3 s and 405 MB), and a million stems 1.3 GB.
MAX_TABLE_STEMS = 300_000


def _common_flags(sp, mode_default: str, with_nk=False):
    sp.add_argument("--p", type=int, required=True, help="prime")
    if with_nk:
        sp.add_argument("--n", type=int, required=True, help="p-power exponent of Z/p^n")
        sp.add_argument("--k", type=int, required=True, help="v1-power of the quotient")
    sp.add_argument("--deg-min", type=int, default=-2, help="window bottom stem (default -2)")
    sp.add_argument("--deg-max", type=int, required=True, help="window top stem")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", type=str, default=None, help="write the table here instead of stdout")
    sp.add_argument("--cache-dir", type=str, default=None)
    sp.add_argument("--mode", choices=MODES, default=mode_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="synlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("einf", help="E-infinity page of one twisted Nygaard spectral sequence")
    _common_flags(sp, "both")
    sp.add_argument("--v1-cutoff", type=int, default=None)
    sp.add_argument("--n", type=int, required=True, help="level of the C_(p^n) construction")
    sp.add_argument("--ell", type=int, required=True, help="twist")
    sp.add_argument("--variant", choices=("hfp", "tate", "muinv"), default="hfp")

    sp = sub.add_parser("tr", help="gr TR(Z_p; Sigma^(2l) Z_p)/p dimension table")
    _common_flags(sp, "both")
    sp.add_argument("--ell", type=int, required=True, help="twist (prime to p)")
    sp.add_argument("--m", type=int, default=None, help="truncation level (omitted: untruncated)")

    for name, help_text in (
        ("syntomic", "mod (p, v1^k) syntomic cohomology table of Z/p^n"),
        ("tc", "pi_* TC(Z/p^n)/(p, v1^k) dimension table"),
        ("ktheory", "pi_* K(Z/p^n)/(p, v1^k) dimension table"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _common_flags(sp, "closed", with_nk=True)

    sp = sub.add_parser("betti-bound", help="p-power truncation depth for mod p Betti numbers")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True, help="affine cohomological dimension")

    sp = sub.add_parser("verify", help="run a cross-verification suite")
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    sp.add_argument("--p", type=int, action="append", default=None, help="restrict to this prime (repeatable)")
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--deg-max", type=int, default=None)
    sp.add_argument("--ell-max", type=int, default=None)
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--double-cutoff", action="store_true", help="also run the cutoff-doubling stability half of AC9")
    sp.add_argument("--out", type=str, default=None)
    return ap


def _emit(args, payload: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a reader that has gone raises here, inside main


def _cache_dir(args) -> str | None:
    return getattr(args, "cache_dir", None) or os.environ.get("SYNLAB_CACHE")


def _table_payload(table, fmt: str) -> str:
    return table.to_json() if fmt == "json" else table.to_csv()


def _cmd_einf(args) -> tuple[int, str]:
    ctx = PrimeContext(args.p)
    window = (args.deg_min, args.deg_max)
    variant = Variant(args.variant)
    cutoff = args.v1_cutoff if args.v1_cutoff is not None else default_v1_cutoff(ctx, args.n)
    if cutoff < 1:
        raise InputError("v1 cutoff must be >= 1")
    meta = {"ell": args.ell, "variant": variant.value, "mode": args.mode, "v1_cutoff": cutoff}
    params = {"p": args.p, "n": args.n, "k": None}
    if args.mode == "closed":
        table = einf_closed_counted(ctx, args.n, args.ell, variant, window, cutoff, params)[0]
    else:
        table = run_to_einf(SSPage(ctx, args.n, args.ell, variant, window, cutoff)).dim_table(window)
        if args.mode == "both":
            closed = einf_closed_counted(ctx, args.n, args.ell, variant, window, cutoff)[0]
            diff = differences(table.entries, closed.entries)
            if diff:
                raise VerificationFailure(f"einf oracle and closed form disagree at {diff[0]}")
            meta["cross_checked"] = True
    table.notes.update(meta)
    return EXIT_OK, _table_payload(table, args.format)


def _cmd_tr(args) -> tuple[int, str]:
    ctx = PrimeContext(args.p)
    window = (args.deg_min, args.deg_max)
    trunc = TRUNC_INF if args.m is None else args.m
    res = tr_gr_module(ctx, args.ell, trunc, window, mode=args.mode)
    table = orbit_dims(ctx.q, window, res.multiset.items(), {"p": args.p, "n": None, "k": None})
    table.notes.update({"ell": args.ell, "m": None if args.m is None else args.m, "mode": args.mode})
    if args.mode == "both":
        table.notes["cross_checked"] = True
    return EXIT_OK, _table_payload(table, args.format)


def _cmd_assembly(args, which: str) -> tuple[int, str]:
    params = AssemblyParams(args.p, args.n, args.k, (args.deg_min, args.deg_max))
    if which == "syntomic":
        table = syntomic_dims(params, mode=args.mode)
    elif which == "tc":
        table = tc_mod_dims(params, mode=args.mode)
    else:
        table = k_mod_dims(params, mode=args.mode)
    return EXIT_OK, _table_payload(table, args.format)


def _cmd_verify(args) -> tuple[int, str]:
    report = run_suite(
        args.suite,
        ps=tuple(sorted(set(args.p))) if args.p else None,
        n_max=args.n_max,
        deg_max=args.deg_max,
        ell_max=args.ell_max,
        m_max=args.m_max,
        double_cutoff=args.double_cutoff,
    )
    for check in report.checks:
        print(check.line(), file=sys.stderr)
    payload = json.dumps(report.to_json_obj(), indent=2)
    return (EXIT_OK if report.ok else EXIT_VERIFY), payload


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "betti-bound":
            print(betti_bound(PrimeContext(args.p), args.d), flush=True)
            return EXIT_OK
        if args.command == "verify":
            code, payload = _cmd_verify(args)
            _emit(args, payload)
            return code
        if args.deg_min > args.deg_max:
            raise InputError(f"empty window ({args.deg_min}, {args.deg_max}): --deg-min exceeds --deg-max")
        if args.deg_max - args.deg_min >= MAX_TABLE_STEMS:
            raise ResourceError(f"window ({args.deg_min}, {args.deg_max}) spans more than {MAX_TABLE_STEMS} stems; narrow it")
        cache_dir = _cache_dir(args)
        key = None
        if cache_dir:
            params = {k: v for k, v in sorted(vars(args).items()) if k not in ("out", "cache_dir")}
            key = cache.cache_key(args.command, params)
        cached = cache.lookup(cache_dir, key)
        if cached is not None:
            _emit(args, cached)
            return EXIT_OK
        if args.command == "einf":
            code, payload = _cmd_einf(args)
        elif args.command == "tr":
            code, payload = _cmd_tr(args)
        elif args.command in ("syntomic", "tc", "ktheory"):
            code, payload = _cmd_assembly(args, args.command)
        else:  # pragma: no cover
            raise InputError(f"unknown command {args.command}")
        try:
            cache.store(cache_dir, key, payload)
        except OSError as exc:
            raise InputError(f"cannot write to cache directory {cache_dir}: {exc.strerror or exc}") from exc
        _emit(args, payload)
        return code
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (VerificationFailure, InvariantError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BrokenPipeError:
        # The reader of stdout stopped early, as `| head` does: not an error.
        # stdout now writes to devnull, so the flush at shutdown cannot
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
