"""Command-line front end.

Subcommands map straight onto the library: ``repr`` and ``shift`` expose the
codec, ``seq`` the sequence engine, ``ord`` the ordinal correspondence,
``gn`` the descending assignment, ``chain`` the slowdown compressor and
verifier.  Every command takes ``--json`` for machine-readable output in the
module schemas.

Exit codes: 0 success, 1 overflow or step-limit outcomes, 2 usage errors,
3 validation rejections.  The cap defaults to 10^7 and can be overridden by
the GRZ_CAP environment variable or a ``--cap`` flag.
"""

from __future__ import annotations

import argparse
import os
import sys

# every command needs these two modules; each command imports the rest
from .grzeval import DEFAULT_CAP, DEFAULT_MAX_STEPS, CapExceededError, Exact
from .order import ParseError, nat

EXIT_OK = 0
EXIT_OVERFLOW = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


def _fmt_nat(v: int) -> str:
    s = str(v)
    return s if len(s) <= 40 else f"≈10^{len(s) - 1}"


def _fmt_bounded(b) -> str:
    if isinstance(b, Exact):
        return _fmt_nat(b.value)
    return f">cap({_fmt_nat(b.cap)})"


def _emit(args, data, text, code: int = EXIT_OK) -> int:
    # the one output rule: data as indented JSON under --json, else text.  A
    # form that takes a walk of its own comes as a function, called only in
    # the mode that prints it
    if args.json:
        import json

        print(json.dumps(data() if callable(data) else data, indent=2))
    else:
        print(text() if callable(text) else text)
    return code


def _default_cap() -> int:
    raw = os.environ.get("GRZ_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = _nat(raw)
    except argparse.ArgumentTypeError as err:
        raise SystemExit(f"grzseq: GRZ_CAP: {err}") from None
    if cap < 2:
        raise SystemExit("grzseq: GRZ_CAP must be at least 2")
    return cap


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_repr(args) -> int:
    from .frep import encode, print_rep, rep_to_json, to_total

    r = to_total(args.x, args.base) if args.total else encode(args.x, args.base)
    return _emit(args, rep_to_json(r), print_rep(r))  # one walk and its checks write both


def _cmd_shift(args) -> int:
    from .frep import shift_total_value, shift_value

    shift = shift_total_value if args.hereditary else shift_value
    out = shift(args.x, args.src, args.dst, args.cap)
    exact = isinstance(out, Exact)
    data = {"value": str(out.value)} if exact else {"exceeds_cap": str(out.cap)}
    return _emit(args, data, _fmt_bounded(out), EXIT_OK if exact else EXIT_OVERFLOW)


def _cmd_seq(args) -> int:
    from .frep import print_rep
    from .ordinals import print_ordinal
    from .seq import run, trace_to_json

    trace = run(args.z, hereditary=args.hereditary, cap=args.cap, max_steps=args.max_steps,
                with_shadow=args.shadow)

    def text() -> str:
        lines = []
        for s in trace.steps:
            line = f"k={s.k} base={s.base} value={_fmt_bounded(s.value)}"
            if s.rep is not None:
                line += f" rep={print_rep(s.rep)}"
            if s.shadow is not None:
                line += f" shadow={print_ordinal(s.shadow)}"
            lines.append(f"{line} {s.phase.value.upper()}")
        lines.append(f"outcome: {trace.outcome.kind} at k={trace.outcome.at}")
        if trace.overflow_desc:
            lines.append(f"overflow: {trace.overflow_desc}")
        return "\n".join(lines)

    code = EXIT_OK if trace.outcome.kind == "terminated" else EXIT_OVERFLOW
    return _emit(args, lambda: trace_to_json(trace), text, code)


def _emit_ordinal(args, a) -> int:
    from .ordinals import ordinal_to_json, print_ordinal

    text = print_ordinal(a)
    return _emit(args, lambda: {"ordinal": ordinal_to_json(a), "text": text}, text)


def _cmd_ord_encode(args) -> int:
    from .correspond import o_map

    return _emit_ordinal(args, o_map(args.x, args.base))


def _cmd_ord_compare(args) -> int:
    from .ordinals import compare

    rel = compare(args.a, args.b).name
    return _emit(args, {"ordering": rel}, rel)


def _cmd_ord_C(args) -> int:
    from .ordinals import coeff_measure

    m = coeff_measure(args.a)
    return _emit(args, {"value": str(m)}, m)


def _cmd_ord_inD(args) -> int:
    from .correspond import in_D

    report = in_D(args.a, args.base)

    def data() -> dict:
        skel = None if report.skeleton is None else [
            [str(v.value) if isinstance(v, Exact) else {"exceeds_cap": str(v.cap)}, str(c)] for v, c in report.skeleton
        ]
        return {"member": report.member, "skeleton": skel, "reason": report.reason}

    return _emit(args, data, "member" if report.member else f"non-member: {report.reason}")


def _cmd_ord_Q(args) -> int:
    from .correspond import Q_pred

    return _emit_ordinal(args, Q_pred(args.a, args.base, args.cap))


def _cmd_gn(args) -> int:
    from .correspond import g

    return _emit_ordinal(args, g(args.n, args.k, args.x))


def _read_chain(path: str):
    from .slowdown import parse_chain_text

    with open(path, encoding="utf-8") as handle:
        return parse_chain_text(handle.read())


# the tower prefix's height N under --json: its first entry nests N levels,
# and the indented JSON of the prefix grows about as N^3, to about 30 MB at 200
_MAX_JSON_HEIGHT = 200


def _cmd_chain_slowdown(args) -> int:
    from .ordinals import ordinal_to_json, print_ordinal
    from .slowdown import chain_to_text, compress, verify_slow

    alphas = _read_chain(args.input)
    out = compress(alphas, args.index, args.const)
    report = verify_slow(out)

    def data() -> dict:
        if out.tower_height_base > _MAX_JSON_HEIGHT:  # refused before any JSON is built
            raise ValueError(f"--json: a tower prefix of height {out.tower_height_base} "
                             f"is past the bound of {_MAX_JSON_HEIGHT}")
        return {
            "entries": [ordinal_to_json(a) for a in out.entries],
            "entries_text": [print_ordinal(a) for a in out.entries],
            "tower_prefix_len": out.tower_prefix_len,
            "tower_height_base": out.tower_height_base,
            "note": out.note,
            "verified": report.ok,
        }

    def text() -> str:
        body = chain_to_text(out.entries) if out.entries else ""
        body += f"# ell={out.tower_prefix_len} N={out.tower_height_base} entries={len(out.entries)}\n"
        if out.note:
            body += f"# note: {out.note}\n"
        return body + f"# verified: {'ok' if report.ok else 'FAILED'}"

    return _emit(args, data, text, EXIT_OK if report.ok else EXIT_REJECTED)


def _cmd_chain_verify(args) -> int:
    from .slowdown import verify_slow

    entries = _read_chain(args.input)
    report = verify_slow(entries)
    if report.ok:
        text = f"ok: {len(entries)} entries descend with C(entry_i) <= i+1"
    else:
        text = "\n".join(f"violation: {v}" for v in report.violations)
    data = {"ok": report.ok, "violations": list(report.violations)}
    return _emit(args, data, text, EXIT_OK if report.ok else EXIT_REJECTED)


# ---------------------------------------------------------------------------
# Argument plumbing


def _nat(text: str) -> int:
    # ASCII digits only, as the library's text readers take them
    try:
        return nat(text)
    except ParseError as err:
        too_long = str(err).endswith("number too long")
        msg = "number too long" if too_long else f"expected a natural number, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _base(text: str) -> int:
    v = _nat(text)
    if v < 2:
        raise argparse.ArgumentTypeError(f"base must be at least 2, got {v}")
    return v


def _ordinal_arg(text: str):
    from .ordinals import parse_ordinal

    try:
        return parse_ordinal(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def build_parser(default_cap: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grzseq",
        description="Exact arithmetic for fast-growing-hierarchy numerals, "
        "base-shift sequences, and ordinal descent bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cap=False, steps=False):
        p.add_argument("--json", action="store_true", help="emit JSON")
        if cap:
            p.add_argument("--cap", type=_nat, default=default_cap, help="value cutoff")
        if steps:
            p.add_argument("--max-steps", type=_nat, default=DEFAULT_MAX_STEPS)

    p = sub.add_parser("repr", help="representation of a number at a base")
    p.add_argument("x", type=_nat)
    p.add_argument("--base", type=_base, required=True)
    p.add_argument("--total", action="store_true", help="hereditary representation")
    add_common(p)
    p.set_defaults(fn=_cmd_repr)

    p = sub.add_parser("shift", help="base-shift a value")
    p.add_argument("x", type=_nat)
    p.add_argument("--from", dest="src", type=_base, required=True)
    p.add_argument("--to", dest="dst", type=_base, required=True)
    p.add_argument("--hereditary", action="store_true")
    add_common(p, cap=True)
    p.set_defaults(fn=_cmd_shift)

    p = sub.add_parser("seq", help="run a base-shift countdown sequence")
    p.add_argument("z", type=_nat)
    p.add_argument("--hereditary", action="store_true")
    p.add_argument("--shadow", action="store_true", help="record ordinal shadows")
    add_common(p, cap=True, steps=True)
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("ord", help="ordinal correspondence operations")
    osub = p.add_subparsers(dest="ord_command", required=True)

    q = osub.add_parser("encode", help="ordinal of a number at a base")
    q.add_argument("x", type=_nat)
    q.add_argument("--base", type=_base, required=True)
    add_common(q)
    q.set_defaults(fn=_cmd_ord_encode)

    q = osub.add_parser("compare", help="compare two ordinal terms")
    q.add_argument("a", type=_ordinal_arg)
    q.add_argument("b", type=_ordinal_arg)
    add_common(q)
    q.set_defaults(fn=_cmd_ord_compare)

    q = osub.add_parser("C", help="hereditary maximal coefficient")
    q.add_argument("a", type=_ordinal_arg)
    add_common(q)
    q.set_defaults(fn=_cmd_ord_C)

    q = osub.add_parser("inD", help="membership in the image set at a base")
    q.add_argument("a", type=_ordinal_arg)
    q.add_argument("--base", type=_base, required=True)
    add_common(q)
    q.set_defaults(fn=_cmd_ord_inD)

    q = osub.add_parser("Q", help="predecessor inside the image set")
    q.add_argument("a", type=_ordinal_arg)
    q.add_argument("--base", type=_base, required=True)
    add_common(q, cap=True)
    q.set_defaults(fn=_cmd_ord_Q)

    p = sub.add_parser("gn", help="the windowed descending assignment g_n(k, x)")
    p.add_argument("n", type=_nat)
    p.add_argument("k", type=_base)
    p.add_argument("x", type=_nat)
    add_common(p)
    p.set_defaults(fn=_cmd_gn)

    p = sub.add_parser("chain", help="descending-chain tools")
    csub = p.add_subparsers(dest="chain_command", required=True)

    q = csub.add_parser("slowdown", help="compress a chain file")
    q.add_argument("--input", required=True)
    q.add_argument("--index", type=_nat, required=True, help="hierarchy index n")
    q.add_argument("--const", type=_nat, required=True, help="prefix constant c")
    add_common(q)
    q.set_defaults(fn=_cmd_chain_slowdown)

    q = csub.add_parser("verify", help="check descent and coefficient bounds")
    q.add_argument("--input", required=True)
    add_common(q)
    q.set_defaults(fn=_cmd_chain_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        default_cap = _default_cap()
    except SystemExit as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser(default_cap)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else EXIT_USAGE
        return code
    try:
        return args.fn(args)
    except CapExceededError as err:
        print(f"grzseq: {err}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (ParseError, OSError) as err:  # OSError: an --input that cannot be opened
        print(f"grzseq: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:  # frep.RepError and correspond.NotInDError are ValueErrors
        print(f"grzseq: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except RecursionError:  # --json output nested deeper than the JSON writers can recurse
        print("grzseq: nesting too deep", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
