"""Command-line front end.

Commands operate on single-document JSON files (see
:mod:`linkgamma.fileformat`); default output is whitespace-separated plain
text, one result per line, and ``--machine`` switches every command to
structured JSON.  Exit codes are stable across commands: 0 success or
equivalent, 1 self-test failure, 2 input error or an order too large, 4
distinct, 5 indeterminate.

Each ``cmd_*`` computes its whole result and returns ``(exit code, JSON
document, plain text)``, the text as a function: writing out long results
costs about as much in either form.  Only :func:`main` prints, once, so an
error leaves stdout empty; a stdout closed before the output was written
is an input error too.  The parser is built on the first call of
:func:`main` and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .equivalence import DISTINCT, EQUIVALENT, are_equivalent
from .exactnum import RatFn, poly_str, series_expand_at_one
from .fileformat import load_text, sequence_to_doc
from .gamma import GammaSeq, gamma_seq, h_closed_form, prepare
from .milnor import milnor_residues
from .transforms import beta_from_gamma, mixed_gamma0, swap_seq

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DISTINCT = 4
EXIT_INDETERMINATE = 5


def _on(path: str, func, *args):
    """``func(*args)``; a ``ValueError`` it raises about the file at ``path``
    is raised again with that path before its message."""
    try:
        return func(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    return _on(path, load_text, text)


def _read(path: str, kind: str):
    """The payload of the file at ``path``, which must hold a ``kind``
    document; a presentation is validated by the library calls that use it."""
    found, payload = _load(path)
    if found != kind:
        field = "'seifert_matrix'" if kind == "presentation" else "'gamma'"
        raise ValueError(f"{path}: expected a {kind} file (with {field})")
    return payload


def _order(value: int, what: str = "order") -> int:
    # an order N yields N + 1 entries, and that count must fit an index
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")
    if value >= sys.maxsize:
        raise ValueError(f"{what} must be less than {sys.maxsize}")
    return value


def _seq_line(seq: GammaSeq) -> str:
    return " ".join(str(e) for e in seq.entries)


def _ratfn_str(f: RatFn) -> str:
    if f.den.coeffs == (1,):
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"


def cmd_gamma(args):
    pres = _read(args.file, "presentation")
    seq = _on(args.file, gamma_seq, pres, _order(args.order))
    return EXIT_OK, sequence_to_doc(seq, name=pres.name), lambda: _seq_line(seq)


def cmd_h(args):
    pres = _read(args.file, "presentation")
    f = _on(args.file, h_closed_form, pres)
    # h's denominator is +-1 at t = 1, so every coefficient is an int
    doc = {"num": f.num.coeffs, "den": f.den.coeffs}
    if pres.name is not None:
        doc["name"] = pres.name
    if args.expand is None:
        return EXIT_OK, doc, lambda: _ratfn_str(f)
    expansion = series_expand_at_one(f, _order(args.expand, "expansion order")).coeffs
    doc["expansion"] = expansion
    return EXIT_OK, doc, lambda: f"{_ratfn_str(f)}\n{' '.join(map(str, expansion))}"


def _truncate(seq: GammaSeq, order: int, path: str) -> GammaSeq:
    if seq.order < order:
        raise ValueError(
            f"{path}: insufficient sequence order: need at least {order}, have {seq.order}"
        )
    return GammaSeq(seq.entries[: order + 1])


def cmd_equiv(args):
    kind_a, payload_a = _load(args.file_a)
    kind_b, payload_b = _load(args.file_b)
    if kind_a != kind_b:
        raise ValueError(
            "inputs must both be presentation files or both be sequence files"
        )
    if kind_a == "presentation":
        if args.order is None:
            raise ValueError("presentation inputs require -n ORDER")
        order = _order(args.order)
        # both files are checked before either sequence is computed
        _on(args.file_a, prepare, payload_a)
        _on(args.file_b, prepare, payload_b)
        seq_a = gamma_seq(payload_a, order)
        seq_b = gamma_seq(payload_b, order)
    else:
        seq_a, _ = payload_a
        seq_b, _ = payload_b
        if args.order is not None:
            order = _order(args.order)
            seq_a = _truncate(seq_a, order, args.file_a)
            seq_b = _truncate(seq_b, order, args.file_b)
        elif seq_a.order != seq_b.order:
            raise ValueError(
                f"order mismatch: {seq_a.order} vs {seq_b.order} "
                "(pass -n ORDER to compare truncations)"
            )
    v = are_equivalent(seq_a, seq_b)
    fields = (("verdict", v.kind), ("shift", v.shift), ("witness_index", v.witness_index))
    doc = {key: value for key, value in fields if value is not None}
    code = {EQUIVALENT: EXIT_OK, DISTINCT: EXIT_DISTINCT}.get(v.kind, EXIT_INDETERMINATE)
    return code, doc, lambda: str(v)


def cmd_beta(args):
    seq, _ = _read(args.file, "sequence")
    value = beta_from_gamma(seq, args.k)
    return EXIT_OK, {"k": args.k, "beta": value}, lambda: str(value)


def cmd_swap(args):
    seq, name = _read(args.file, "sequence")
    swapped = swap_seq(seq)
    return EXIT_OK, sequence_to_doc(swapped, name=name), lambda: _seq_line(swapped)


def cmd_mixed(args):
    seq, _ = _read(args.file, "sequence")
    value = mixed_gamma0(seq, args.p, args.l)
    return EXIT_OK, {"p": args.p, "l": args.l, "mixed_gamma0": value}, lambda: str(value)


def cmd_milnor(args):
    seq, _ = _read(args.file, "sequence")
    rows = [(r.index, r.modulus, r.residue) for r in milnor_residues(seq)]
    doc = {"residues": [dict(zip(("index", "modulus", "residue"), row)) for row in rows]}
    return EXIT_OK, doc, lambda: "\n".join(" ".join(map(str, row)) for row in rows)


def cmd_selftest(args):
    from . import selftest

    healthy, doc, text = selftest.run(args.fixtures)
    return (EXIT_OK if healthy else EXIT_SELFTEST_FAILED), doc, lambda: text


def _machine_flag(parser) -> None:
    parser.add_argument(
        "--machine",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit structured JSON instead of plain text",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkgamma",
        description=(
            "Exact gamma invariants of 3-component links: sequences, the "
            "rational function packaging them, transforms, equivalence, and "
            "Milnor residues."
        ),
    )
    parser.add_argument(
        "--machine",
        action="store_true",
        default=False,
        help="emit structured JSON instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="gamma sequence of a presentation file")
    p.add_argument("-n", "--order", type=int, required=True, help="truncation order")
    p.add_argument("file")
    _machine_flag(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("h", help="rational function of a presentation file")
    p.add_argument(
        "--expand",
        type=int,
        metavar="N",
        help="also print the order-N expansion at t = 1",
    )
    p.add_argument("file")
    _machine_flag(p)
    p.set_defaults(func=cmd_h)

    p = sub.add_parser("beta", help="beta invariant from a sequence file")
    p.add_argument("-k", type=int, required=True, help="beta index (k >= 1)")
    p.add_argument("file")
    _machine_flag(p)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("swap", help="sequence after swapping components 2 and 3")
    p.add_argument("file")
    _machine_flag(p)
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("mixed", help="mixed-derivative linking number")
    p.add_argument("-p", type=int, required=True, help="derivatives of component 2")
    p.add_argument("-l", type=int, required=True, help="derivatives of component 3")
    p.add_argument("file")
    _machine_flag(p)
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("milnor", help="Milnor residues of a sequence file")
    p.add_argument("file")
    _machine_flag(p)
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser(
        "equiv", help="decide equivalence modulo the shift action"
    )
    p.add_argument(
        "-n",
        "--order",
        type=int,
        help="truncation order (required for presentation inputs)",
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    _machine_flag(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("selftest", help="run the bundled fixture and oracle suites")
    p.add_argument(
        "--fixtures",
        metavar="DIR",
        help="read fixture files from DIR instead of the bundled corpus",
    )
    _machine_flag(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    # exact results may exceed the int -> str digit limit; input integers
    # keep their own bound in fileformat
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, doc, text = args.func(args)
        print(json.dumps(doc) if args.machine else text(), flush=True)
        return code
    except BrokenPipeError:
        try:
            print("error: stdout closed before the output was written", file=sys.stderr)
        except OSError:
            pass
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    code = main()
    if code == EXIT_INPUT_ERROR:
        # after a closed pipe, the interpreter's last flush of stdout goes
        # to devnull (Python docs, "Note on SIGPIPE"); an error printed none
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)
