"""Command-line front end.

Commands operate on single-document JSON files (see
:mod:`linkgamma.fileformat`); default output is whitespace-separated plain
text, one result per line, and ``--machine`` switches every command to
structured JSON.  Exit codes are stable across commands: 0 success or
equivalent, 1 self-test failure, 2 input error or an order too large, 4
distinct, 5 indeterminate.
"""

from __future__ import annotations

import argparse
import json
import sys

from .equivalence import DISTINCT, EQUIVALENT, are_equivalent
from .exactnum import RatFn, poly_str, series_expand_at_one
from .fileformat import load_text, sequence_to_doc
from .gamma import GammaSeq, SeifertPresentation, gamma_seq, h_closed_form, prepare
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


def _read_presentation(path: str) -> SeifertPresentation:
    # validated by the library calls that use it: prepare, gamma_seq, h_closed_form
    kind, payload = _load(path)
    if kind != "presentation":
        raise ValueError(f"{path}: expected a presentation file (with 'seifert_matrix')")
    return payload


def _read_sequence(path: str):
    kind, payload = _load(path)
    if kind != "sequence":
        raise ValueError(f"{path}: expected a sequence file (with 'gamma')")
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


def _coeff_json(c):
    return c if isinstance(c, int) else str(c)


def _ratfn_str(f: RatFn) -> str:
    if f.den.coeffs == (1,):
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"


def cmd_gamma(args) -> int:
    pres = _read_presentation(args.file)
    seq = _on(args.file, gamma_seq, pres, _order(args.order))
    if args.machine:
        print(json.dumps(sequence_to_doc(seq, name=pres.name)))
    else:
        print(_seq_line(seq))
    return EXIT_OK


def cmd_h(args) -> int:
    pres = _read_presentation(args.file)
    f = _on(args.file, h_closed_form, pres)
    expansion = None
    if args.expand is not None:
        expansion = series_expand_at_one(f, _order(args.expand, "expansion order"))
    if args.machine:
        doc = {
            "num": [_coeff_json(c) for c in f.num.coeffs],
            "den": [_coeff_json(c) for c in f.den.coeffs],
        }
        if pres.name is not None:
            doc["name"] = pres.name
        if expansion is not None:
            doc["expansion"] = [_coeff_json(c) for c in expansion.coeffs]
        print(json.dumps(doc))
    else:
        print(_ratfn_str(f))
        if expansion is not None:
            print(" ".join(str(c) for c in expansion.coeffs))
    return EXIT_OK


def _truncate(seq: GammaSeq, order: int, path: str) -> GammaSeq:
    if seq.order < order:
        raise ValueError(
            f"{path}: insufficient sequence order: need at least {order}, have {seq.order}"
        )
    return GammaSeq(seq.entries[: order + 1])


def cmd_equiv(args) -> int:
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
        prep_a = _on(args.file_a, prepare, payload_a)
        prep_b = _on(args.file_b, prepare, payload_b)
        seq_a = gamma_seq(prep_a, order)
        seq_b = gamma_seq(prep_b, order)
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
    verdict = are_equivalent(seq_a, seq_b)
    if args.machine:
        doc = {"verdict": verdict.kind}
        if verdict.shift is not None:
            doc["shift"] = verdict.shift
        if verdict.witness_index is not None:
            doc["witness_index"] = verdict.witness_index
        print(json.dumps(doc))
    else:
        print(str(verdict))
    if verdict.kind == EQUIVALENT:
        return EXIT_OK
    if verdict.kind == DISTINCT:
        return EXIT_DISTINCT
    return EXIT_INDETERMINATE


def cmd_beta(args) -> int:
    seq, _ = _read_sequence(args.file)
    value = beta_from_gamma(seq, args.k)
    if args.machine:
        print(json.dumps({"k": args.k, "beta": value}))
    else:
        print(value)
    return EXIT_OK


def cmd_swap(args) -> int:
    seq, name = _read_sequence(args.file)
    swapped = swap_seq(seq)
    if args.machine:
        print(json.dumps(sequence_to_doc(swapped, name=name)))
    else:
        print(_seq_line(swapped))
    return EXIT_OK


def cmd_mixed(args) -> int:
    seq, _ = _read_sequence(args.file)
    value = mixed_gamma0(seq, args.p, args.l)
    if args.machine:
        print(json.dumps({"p": args.p, "l": args.l, "mixed_gamma0": value}))
    else:
        print(value)
    return EXIT_OK


def cmd_milnor(args) -> int:
    seq, _ = _read_sequence(args.file)
    residues = milnor_residues(seq)
    if args.machine:
        print(
            json.dumps(
                {
                    "residues": [
                        {"index": r.index, "modulus": r.modulus, "residue": r.residue}
                        for r in residues
                    ]
                }
            )
        )
    else:
        for r in residues:
            print(f"{r.index} {r.modulus} {r.residue}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest

    healthy = selftest.run(fixtures_dir=args.fixtures, machine=args.machine) == 0
    return EXIT_OK if healthy else EXIT_SELFTEST_FAILED


def _machine_flag(parser) -> None:
    parser.add_argument(
        "--machine",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit structured JSON instead of plain text",
    )


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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
