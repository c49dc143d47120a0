"""Command-line surface binding the modules into pipelines.

Subcommands: ``parse`` (validate and normalize), ``detect`` (emit a
generating set of the symmetry group in cycle notation), ``break`` (emit
an augmented instance and/or a DNF sidecar), ``verify`` (oracle checks at
desk scale), ``solve`` (brute-force truth value) and ``gen`` (benchmark
instances).

Exit codes: 0 ok, 1 usage, 2 input error, 3 cap exceeded,
10 verification failure.  ``-`` names standard input or output.  All
commands are deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

from .benchmarks import gen_kbkf, gen_random_qbf
from .breakers import (
    augment_instance,
    augmented_formula,
    breaker_formula,
    encode_both,
    encode_existential_cnf,
    encode_universal_dnf,
    select_group_elements,
    verify_breaker,
)
from .detect import DEFAULT_BUDGET, detect_symmetries
from .errors import CapExceededError, QdimacsParseError, ValidationError
from .groups import format_generator, parse_generators
from .qdimacs import QbfInstance, parse_qdimacs, serialize_dnf, serialize_qdimacs
from .strategies import EXISTENTIAL, UNIVERSAL, check_enumeration_cap, qbf_truth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 10


class UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # input errors, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _read_instance(path: str) -> QbfInstance:
    return parse_qdimacs(_read_text(path))


def _check_stream_conflict(args) -> None:
    if args.generators == "-" and args.instance == "-":
        raise UsageError("instance and generator file cannot both be stdin")


def _load_generators(args, instance: QbfInstance):
    if args.generators is not None:
        gens = parse_generators(
            _read_text(args.generators), instance.prefix.variables
        )
    else:
        gens = list(detect_symmetries(instance, budget=args.budget).generators)
    if args.product_length > 1:
        gens = list(select_group_elements(gens, args.product_length))
    return gens


def _cmd_parse(args) -> int:
    _write_text(args.output, serialize_qdimacs(_read_instance(args.instance)))
    return EXIT_OK


def _cmd_detect(args) -> int:
    instance = _read_instance(args.instance)
    result = detect_symmetries(instance, budget=args.budget)
    for g in result.generators:
        print(format_generator(g))
    if result.complete:
        try:
            order = str(result.group_order)
        except ValueError:  # more digits than the interpreter converts
            order = f"about 10^{math.log10(result.group_order):.1f}"
        print(f"group order {order}", file=sys.stderr)
    else:
        print(
            "search budget exhausted; the generator list may be incomplete",
            file=sys.stderr,
        )
    if not result.generators:
        print("no symmetries found", file=sys.stderr)
    return EXIT_OK


def _cmd_break(args) -> int:
    _check_stream_conflict(args)
    instance = _read_instance(args.instance)
    gens = _load_generators(args, instance)
    mode, encode = args.polarity
    if mode == "combined" and args.dnf_out is None:
        raise UsageError("break --both needs --dnf-out for the cube sidecar")
    files = [os.path.realpath(p) for p in (args.output, args.dnf_out) if p not in (None, "-")]
    if mode != "conjoin-cnf" and len(files) == 2 and files[0] == files[1]:
        raise UsageError("-o and --dnf-out name the same file")
    augmented, sidecar = augment_instance(instance, encode(instance.prefix, gens), mode)
    if mode == "combined":
        # the cube sidecar disjoins with the original matrix only, so the
        # output records how many leading clauses that matrix has
        augmented = dataclasses.replace(
            augmented,
            comments=(f"matrix clauses: {len(instance.clauses)}",) + augmented.comments,
        )
    # --forall writes its CNF, the input with the chain variables
    # quantified, only when -o and --dnf-out both name a file; a sidecar
    # goes to --dnf-out, else -o, else stdout
    if mode != "attach-dnf" or None not in (args.output, args.dnf_out):
        _write_text(args.output, serialize_qdimacs(augmented))
    if sidecar is not None:
        dnf_out = args.output if args.dnf_out is None else args.dnf_out
        _write_text(dnf_out, serialize_dnf(*sidecar))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_stream_conflict(args)
    instance = _read_instance(args.instance)
    # --cap bounds both players' strategy counts, which bound the orbit
    # classes the coverage checks build; fail before symmetry detection and
    # the truth checks when the prefix alone shows too many strategies
    for role in (EXISTENTIAL, UNIVERSAL):
        check_enumeration_cap(instance.prefix, role, args.cap)
    gens = _load_generators(args, instance)
    base = qbf_truth(instance)

    # every check concerns the chains that break writes: psi is their projection
    enc_e, enc_u = encode_both(instance.prefix, gens)
    psi_e, psi_u = breaker_formula(enc_e), breaker_formula(enc_u)

    truth_checks = (
        ("existential breaker is a true QBF", (instance.prefix, psi_e.formula), True),
        ("universal breaker is a false QBF", (instance.prefix, psi_u.formula), False),
        ("truth preserved by conjoined CNF encoding",
         augment_instance(instance, enc_e, "conjoin-cnf")[0], base),
        ("truth preserved by attached DNF encoding",
         augmented_formula(instance, universal=enc_u), base),
        ("truth preserved by combined encoding", augmented_formula(instance, enc_e, enc_u), base),
    )
    checks = [
        {"name": name, "ok": qbf_truth(target) == expected}
        for name, target, expected in truth_checks
    ]
    # orbit coverage: one pass over the game tree per player builds the
    # orbit classes and counts their strategies, enumerating none
    for psi, name in ((psi_e, "existential"), (psi_u, "universal")):
        report = verify_breaker(instance.prefix, gens, psi, cap=args.cap)
        checks.append({"name": f"{name} orbit coverage", "ok": report.ok,
                       "orbits": report.orbit_count, "covered": report.covered,
                       "kept": report.kept})
    all_ok = all(check["ok"] for check in checks)
    if args.json:
        generators = [format_generator(g) for g in gens]
        print(json.dumps({"instance": args.instance, "truth": base, "generators": generators,
                          "checks": checks, "ok": all_ok}, indent=2))
    else:
        for check in checks:
            extra = f" ({check['covered']}/{check['orbits']} orbits)" if "orbits" in check else ""
            print(f"{'PASS' if check['ok'] else 'FAIL'}  {check['name']}{extra}")
        print(f"{'ok' if all_ok else 'verification failed'}: {args.instance}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_solve(args) -> int:
    print("TRUE" if qbf_truth(_read_instance(args.instance)) else "FALSE")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "kbkf":
        instance = gen_kbkf(args.levels)
    else:
        instance = gen_random_qbf(
            args.seed, args.vars, args.clauses, args.pattern, args.planted
        )
    _write_text(args.output, serialize_qdimacs(instance))
    return EXIT_OK


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _add_instance_arg(parser):
    parser.add_argument("instance", help="QDIMACS file, or - for stdin")


def _add_output_arg(parser):
    parser.add_argument(
        "-o", "--output", metavar="FILE", help="write here instead of stdout"
    )


def _add_detection_args(parser):
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help="search-node budget for symmetry detection",
    )


def _add_group_args(parser):
    parser.add_argument(
        "--generators",
        metavar="FILE",
        help="read generators (cycle notation, one per line) instead of detecting",
    )
    parser.add_argument(
        "--product-length",
        type=_positive_int,
        default=1,
        metavar="L",
        help="break with all generator products up to this length",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsymbreak",
        description="Symmetry detection and lex-leader breaking for QBF.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="validate and normalize a QDIMACS file")
    _add_instance_arg(p)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("detect", help="print syntactic symmetry generators")
    _add_instance_arg(p)
    _add_detection_args(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("break", help="emit a symmetry-broken instance")
    _add_instance_arg(p)
    # each polarity flag names its augmentation mode and encoder
    polarity = p.add_mutually_exclusive_group(required=True)
    for flag, const, help_text in (
        ("--exists", ("conjoin-cnf", encode_existential_cnf),
         "conjoin the existential CNF breaker"),
        ("--forall", ("attach-dnf", encode_universal_dnf),
         "emit the universal DNF sidecar"),
        ("--both", ("combined", encode_both), "emit combined CNF and DNF outputs"),
    ):
        polarity.add_argument(
            flag, dest="polarity", action="store_const", const=const, help=help_text
        )
    _add_output_arg(p)
    p.add_argument(
        "--dnf-out", metavar="FILE", help="where to write the DNF cube sidecar"
    )
    _add_group_args(p)
    _add_detection_args(p)
    p.set_defaults(func=_cmd_break)

    p = sub.add_parser("verify", help="run the breaker oracle checks (desk scale)")
    _add_instance_arg(p)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--cap",
        type=_positive_int,
        default=4096,
        metavar="N",
        help="cap on either player's strategy count for the orbit-coverage checks",
    )
    _add_group_args(p)
    _add_detection_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="brute-force truth value (desk scale)")
    _add_instance_arg(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate benchmark instances")
    gen_sub = p.add_subparsers(dest="family", required=True, parser_class=_Parser)

    g = gen_sub.add_parser("kbkf", help="the t-level KBKF family (false, symmetric)")
    g.add_argument("levels", type=int, help="number of levels t")
    _add_output_arg(g)
    g.set_defaults(func=_cmd_gen, family="kbkf")

    g = gen_sub.add_parser("random", help="seeded random instance")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-n", "--vars", type=int, required=True, metavar="N")
    g.add_argument("-m", "--clauses", type=int, required=True, metavar="M")
    g.add_argument(
        "--pattern",
        default="ea",
        help="quantifier block pattern, letters a/e with optional sizes",
    )
    g.add_argument(
        "--planted",
        action="store_true",
        help="close the clauses under a random involution",
    )
    _add_output_arg(g)
    g.set_defaults(func=_cmd_gen, family="random")

    return parser


def main(argv=None) -> int:
    # input warnings are one line each, without Python's source location
    with warnings.catch_warnings():
        warnings.showwarning = lambda msg, *_, **__: print(f"warning: {msg}", file=sys.stderr)
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QdimacsParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
