"""Command line interface.

Algebras travel as JSON files with keys "dim", "unit", "structure"; rationals
are strings like "2/3" (or bare integers as strings). Every subcommand accepts
--json, which wraps the result as {"status": "ok", "payload": ...} or
{"status": "error", "code": ..., "message": ...} with deterministic rendering
(sorted keys, two-space indent). Exit codes: 0 success, 2 input problems
(unreadable files, malformed JSON, bad flag values), 3 mathematical
precondition failures (invalid structure constants, non-ideals, non-idempotent
elements, uncertified or conflicting index data).

Each handler returns its payload and its text lines. The plain commands
(validate, radical, lift-idem, ed nil-dim, ed partitions) write their text by
one rule, _plain: a "key: value" line per payload entry. The ed bound reports
share _report's text; the formula commands (ed csa, division, karpenko, ckm,
bundle) are table rows whose handlers are _bound(evaluate), as the gen kinds'
are _gen(build). wedderburn and gen have text of their own.

The parser is built per command from the table _COMMANDS: build_parser(argv)
holds only the subcommand that argv names at each level, or all of them at a
level where argv names none, so a run does not pay for building the other
commands' parsers. Usage, help and error text read as from the whole tree.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .algebra import FDAlgebra, Subspace, dual_numbers, group_algebra, matrix_algebra, quaternions, quotient_by_ideal, upper_triangular
from .corpus import cyclic_table, fixture_by_name, fixtures, product_table, symmetric3_table
from .edbounds import (
    Partition,
    bound_csa,
    bound_division,
    bound_from_wedderburn,
    bundle_moduli_ed,
    ckm_value,
    karpenko_value,
    nil_stack_dim,
    partition_square_sum_check,
    trdeg_bound_indecomposable,
)
from .errors import QalgError, ValidationError
from .linalg import rat_from_str, rat_to_str
from .modules import refine_to_idempotent
from .structure import jacobson_radical, wedderburn_decomposition

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3


class CliError(Exception):
    """Carries the exit code and error class for uniform reporting."""

    def __init__(self, code: str, message: str, exit_code: int):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def input_error(message: str) -> CliError:
    return CliError("input", message, EXIT_INPUT)


def math_error(message: str) -> CliError:
    return CliError("math", message, EXIT_MATH)


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Input parsing helpers


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise input_error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise input_error(f"{path} is not valid JSON: {exc}") from exc


def load_algebra(path: str) -> FDAlgebra:
    obj = _load_json_file(path)
    try:
        return FDAlgebra.from_json_dict(obj)
    except (ValueError, TypeError) as exc:
        raise input_error(f"{path}: {exc}") from exc


def validated_algebra(path: str) -> FDAlgebra:
    a = load_algebra(path)
    try:
        a.validate()
    except ValidationError as exc:
        raise math_error(f"{path}: {exc}") from exc
    return a


def _json_argument(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise input_error(f"{what} is not valid JSON: {exc}") from exc


def parse_vector_json(text: str, dim: int, what: str) -> tuple[Fraction, ...]:
    return _vector_from_obj(_json_argument(text, what), dim, what)


def _vector_from_obj(raw, dim: int, what: str) -> tuple[Fraction, ...]:
    if not isinstance(raw, list) or len(raw) != dim:
        raise input_error(f"{what} must be a JSON array of length {dim}")
    out = []
    for x in raw:
        if isinstance(x, str):
            out.append(parse_rational_flag(x, what))
        elif isinstance(x, int) and not isinstance(x, bool):
            out.append(Fraction(x))
        else:
            raise input_error(f"{what} entries must be integers or rational strings")
    return tuple(out)


def parse_subspace_json(text: str, dim: int, what: str) -> Subspace:
    raw = _json_argument(text, what)
    if not isinstance(raw, list):
        raise input_error(f"{what} must be a JSON array of vectors")
    vectors = [_vector_from_obj(v, dim, f"{what} vector {i}") for i, v in enumerate(raw)]
    return Subspace(dim, vectors)


def parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(x.strip()) for x in text.split(","))
    except ValueError as exc:
        raise input_error(f"partition must be comma-separated integers: {text!r}") from exc
    return Partition(tuple(sorted(parts, reverse=True)))


def parse_rational_flag(text: str, what: str) -> Fraction:
    try:
        return rat_from_str(text)
    except ValueError as exc:
        raise input_error(f"{what}: {exc}") from exc


def vec_json(v: Sequence[Fraction]) -> list[str]:
    return [rat_to_str(c) for c in v]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a payload dict and human lines)


def _plain(payload: dict) -> tuple[dict, list[str]]:
    """The payload and its text, one "key: value" line per entry in order. A
    bool reads yes or no; a list of vectors (or an empty list) gives one line
    per vector with its entries joined by spaces; a list of strings is joined
    by spaces and a list of ints by commas."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, list) and (not value or isinstance(value[0], list)):
            lines += [f"{key}: " + " ".join(v) for v in value]
            continue
        elif isinstance(value, list):
            value = (" " if isinstance(value[0], str) else ",").join(map(str, value))
        lines.append(f"{key}: {value}")
    return payload, lines


def cmd_validate(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    return _plain({"dim": a.dim, "valid": True, "commutative": a.is_commutative()})


def cmd_radical(args) -> tuple[dict, list[str]]:
    report = jacobson_radical(validated_algebra(args.file))
    return _plain(
        {
            "radical_dim": report.radical.dim,
            "nilpotency_index": report.nilpotency_index,
            "semisimple_dim": report.quotient.quotient.dim,
            "radical_basis": [vec_json(v) for v in report.radical.vectors()],
        }
    )


def cmd_wedderburn(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    radical_dim = jacobson_radical(a).radical.dim
    w = wedderburn_decomposition(a)
    factors = [
        {
            "factor_dim": f.factor_dim,
            "center_dim": f.center_dim,
            "degree": f.degree_over_center,
            "matrix_size": "unknown" if f.matrix_size is None else f.matrix_size,
            "idempotent": vec_json(f.central_idempotent),
        }
        for f in w.factors
    ]
    lines = [f"radical_dim: {radical_dim}", f"semisimple_dim: {w.semisimple_quotient.dim}", f"factors: {len(factors)}"]
    lines += [
        f"factor {i}: dim {f['factor_dim']}, center {f['center_dim']}, degree {f['degree']}, matrix size {f['matrix_size']}"
        for i, f in enumerate(factors)
    ]
    return {"radical_dim": radical_dim, "semisimple_dim": w.semisimple_quotient.dim, "factors": factors}, lines


def cmd_lift_idem(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    element = parse_vector_json(args.idempotent, a.dim, "--idempotent")
    ideal = parse_subspace_json(args.ideal, a.dim, "--ideal")
    try:
        qp = quotient_by_ideal(a, ideal)
        lifted, steps = refine_to_idempotent(qp, element)
    except ValueError as exc:
        raise math_error(str(exc)) from exc
    return _plain({"idempotent": vec_json(lifted), "iterations": steps})


def _report(report) -> tuple[dict, list[str]]:
    value = "-infinity" if report.value is None else rat_to_str(report.value)
    lines = [f"value: {value}", f"kind: {report.kind}", f"formula: {report.formula}"]
    lines += [f"assumption: {note}" for note in report.assumptions]
    return report.to_json_dict(), lines


def _bound(evaluate):
    """The handler of one ed formula command: the report evaluate(args) with
    _report's payload and text."""
    return lambda args: _report(evaluate(args))


_ASSERT_INDEX_RE = re.compile(r"^(\d+):(\d+)$")


def _asserted_indices(specs: Sequence[str]) -> dict[int, int]:
    """The --assert-index values as factor -> index. Checks their syntax, index
    >= 1 and that no factor gets two; the factor range needs the algebra."""
    asserted: dict[int, int] = {}
    for spec in specs:
        m = _ASSERT_INDEX_RE.match(spec)
        if not m:
            raise input_error(
                f"--assert-index expects FACTOR:INDEX with nonnegative integers, got {spec!r}"
            )
        pos, idx = int(m.group(1)), int(m.group(2))
        if idx < 1:
            raise input_error(f"--assert-index index must be positive, got {spec!r}")
        if asserted.setdefault(pos, idx) != idx:
            raise input_error(
                f"--assert-index gives factor {pos} two indices, {asserted[pos]} and {idx}"
            )
    return asserted


def cmd_ed_algebra(args) -> tuple[dict, list[str]]:
    # Every flag is checked before the file is read and decomposed.
    if args.d < 1:
        raise input_error("--d must be a positive integer")
    r = parse_rational_flag(args.rank, "--rank") if args.rank is not None else None
    if r is not None and r <= 0:
        raise input_error("--rank must be positive")
    given = _asserted_indices(args.assert_index)
    w = wedderburn_decomposition(validated_algebra(args.file))
    n = len(w.factors)
    for pos in given:
        if pos >= n:
            raise input_error(f"--assert-index names factor {pos} but there are only {n} factors")
    asserted = [given.get(i) for i in range(n)] if given else None
    try:
        report = bound_from_wedderburn(w, args.d, asserted_indices=asserted, r=r)
    except ValueError as exc:
        raise math_error(str(exc)) from exc
    return _report(report)


def cmd_ed_nil_dim(args) -> tuple[dict, list[str]]:
    partition = parse_partition(args.partition)
    return _plain(
        {
            "genus": args.genus,
            "partition": list(partition.parts),
            "dim": nil_stack_dim(args.genus, partition),
            "moduli_trdeg_bound": int(trdeg_bound_indecomposable(args.genus, partition).value),
        }
    )


def cmd_ed_partitions(args) -> tuple[dict, list[str]]:
    check = partition_square_sum_check(args.rank)
    return _plain(
        {
            "rank": check.rank,
            "max_square_sum": check.max_square_sum,
            "predicted": check.predicted,
            "witness": list(check.witness.parts),
            "attained": check.attained,
        }
    )


_GROUP_RE = re.compile(r"^c(\d+)(?:xc(\d+))?$")


def _group_table_by_name(name: str) -> list[list[int]]:
    """The table of s3, of the cyclic group cN, or of the product cNxcM."""
    if name == "s3":
        return symmetric3_table()
    m = _GROUP_RE.match(name)
    if not m:
        raise input_error(f"unknown group {name!r}; use cN, cNxcM, or s3")
    orders = [int(n) for n in m.groups() if n is not None]
    if min(orders) < 1:
        raise input_error(f"cyclic group {'orders' if len(orders) == 2 else 'order'} must be positive")
    tables = [cyclic_table(n) for n in orders]
    return product_table(*tables) if len(tables) == 2 else tables[0]


def _fixture(name: str) -> FDAlgebra:
    try:
        spec = fixture_by_name(name)
    except KeyError:
        names = ", ".join(s.name for s in fixtures())
        raise input_error(f"unknown fixture {name!r}; available: {names}") from None
    return spec.build()


def _gen(build):
    """The handler of one gen kind: the algebra build(args) as payload. The
    bare output is itself the algebra JSON, so it can be piped to a file and
    fed back into the file-based commands."""

    def handler(args) -> tuple[dict, list[str]]:
        payload = build(args).to_json_dict()
        return payload, [render_json(payload).rstrip("\n")]

    return handler


# ---------------------------------------------------------------------------
# Parser assembly


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One add_argument call, as data."""
    return flags, options


_FILE = (_arg("file", help="algebra JSON file"),)

# Every command: its path, its help (None lists it without a help line), its
# arguments and its handler. A path in _GROUPS has subcommands, stored in the
# namespace under the given name; every other path is a command to run and
# takes --json. The table order is the order of the help listings.
_GROUPS = {(): "command", ("ed",): "ed_command", ("gen",): "kind"}
_COMMANDS = (
    (("validate",), "check structure constants", _FILE, cmd_validate),
    (("radical",), "radical and nilpotency index", _FILE, cmd_radical),
    (("wedderburn",), "simple factor decomposition", _FILE, cmd_wedderburn),
    (
        ("lift-idem",),
        "refine an element idempotent modulo a nilpotent ideal",
        _FILE
        + (
            _arg("--idempotent", required=True, help="JSON vector in algebra coordinates"),
            _arg("--ideal", required=True, help="JSON array of spanning vectors"),
        ),
        cmd_lift_idem,
    ),
    (("ed",), "essential-dimension style bounds", (), None),
    (
        ("ed", "csa"),
        "rank-r modules over a degree-deg algebra",
        (
            _arg("--deg", type=int, required=True),
            _arg("--rank", required=True, help="rational rank, for example 1/3"),
        ),
        _bound(lambda args: bound_csa(args.deg, parse_rational_flag(args.rank, "--rank"))),
    ),
    (
        ("ed", "division"),
        "rank-1/d modules over a division algebra",
        (_arg("--deg", type=int, required=True), _arg("--d", type=int, required=True)),
        _bound(lambda args: bound_division(args.deg, args.d)),
    ),
    (
        ("ed", "karpenko"),
        "prime power degree exact value",
        (
            _arg("--p", type=int, required=True),
            _arg("--n", type=int, required=True),
            _arg("--m", type=int, required=True),
        ),
        _bound(lambda args: karpenko_value(args.p, args.n, args.m)),
    ),
    (
        ("ed", "ckm"),
        "conjectural exact value for rank 1/deg",
        (_arg("--deg", type=int, required=True),),
        _bound(lambda args: ckm_value(args.deg)),
    ),
    (
        ("ed", "algebra"),
        "bound for rank-1/d modules over an algebra file",
        _FILE
        + (
            _arg("--d", type=int, required=True),
            _arg("--rank", default=None, help="override the module rank (default 1/d)"),
            _arg(
                "--assert-index",
                action="append",
                default=[],
                metavar="FACTOR:INDEX",
                help="assert the division algebra index of a factor with an"
                " uncertified matrix size; repeatable",
            ),
        ),
        cmd_ed_algebra,
    ),
    (
        ("ed", "bundle"),
        "bundle moduli essential dimension",
        (
            _arg("--genus", type=int, required=True),
            _arg("--rank", type=int, required=True),
            _arg("--degree", type=int, required=True),
            _arg("--assume-ckm", action="store_true"),
        ),
        _bound(lambda args: bundle_moduli_ed(args.genus, args.rank, args.degree, assume_ckm=args.assume_ckm)),
    ),
    (
        ("ed", "nil-dim"),
        "nilpotent stratum dimension",
        (
            _arg("--genus", type=int, required=True),
            _arg("--partition", required=True, help="comma-separated parts, for example 2,1"),
        ),
        cmd_ed_nil_dim,
    ),
    (("ed", "partitions"), "maximize sum of squared parts", (_arg("--rank", type=int, required=True),), cmd_ed_partitions),
    (("gen",), "emit a built-in algebra as JSON", (), None),
    (("gen", "matrix"), None, (_arg("size", type=int),), _gen(lambda args: matrix_algebra(args.size))),
    (("gen", "upper-triangular"), None, (_arg("size", type=int),), _gen(lambda args: upper_triangular(args.size))),
    (("gen", "dual-numbers"), None, (), _gen(lambda args: dual_numbers())),
    (
        ("gen", "quaternions"),
        None,
        (
            _arg("a", help="square of the first generator, for example -1"),
            _arg("b", help="square of the second generator"),
        ),
        _gen(
            lambda args: quaternions(
                parse_rational_flag(args.a, "first quaternion parameter"),
                parse_rational_flag(args.b, "second quaternion parameter"),
            )
        ),
    ),
    (
        ("gen", "group"),
        None,
        (_arg("name", help="cN, cNxcM, or s3"),),
        _gen(lambda args: group_algebra(_group_table_by_name(args.name))),
    ),
    (
        ("gen", "fixture"),
        None,
        (_arg("name", help="name of a built-in fixture algebra"),),
        _gen(lambda args: _fixture(args.name)),
    ),
)


def _add_subcommands(parser, path: tuple[str, ...], rest: Sequence[str], common) -> None:
    """Give parser the subcommands under path. When rest, the command line
    after path, starts with one of their names, only that one is built, and
    the metavar keeps all of them in the usage line, which the top level
    prints for an argument that no command takes."""
    rows = [row for row in _COMMANDS if row[0][:-1] == path]
    names = [row[0][-1] for row in rows]
    if rest and rest[0] in names:
        rows = [rows[names.index(rest[0])]]
        metavar, rest = "{" + ",".join(names) + "}", rest[1:]
    else:
        metavar, rest = None, ()
    sub = parser.add_subparsers(dest=_GROUPS[path], required=True, metavar=metavar)
    for child, help_text, arguments, handler in rows:
        group = child in _GROUPS
        options = {} if help_text is None else {"help": help_text}
        p = sub.add_parser(child[-1], parents=[] if group else [common], **options)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
        if handler is not None:
            p.set_defaults(func=handler)
        if group:
            _add_subcommands(p, child, rest, common)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for the command line argv. It builds only the subcommand
    that argv names at each level, and every subcommand at a level where argv
    names none, so the empty argv gives the whole tree. Usage, help and
    errors read the same either way."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON envelope"
    )

    parser = argparse.ArgumentParser(
        prog="qalg",
        description="Exact structure computations for finite-dimensional"
        " rational algebras, and essential-dimension style bounds.",
    )
    _add_subcommands(parser, (), list(argv), common)
    return parser


def _run(args) -> tuple[dict, list[str]]:
    """The subcommand's payload and lines. A QalgError it lets through is a
    failed mathematical precondition, a ValueError a bad input."""
    try:
        return args.func(args)
    except QalgError as exc:
        raise math_error(str(exc)) from exc
    except ValueError as exc:
        raise input_error(str(exc)) from exc


def main(argv: Sequence[str] | None = None) -> int:
    # Python caps int-to-str conversion at 4300 digits to guard parsers of
    # untrusted text; a result computed here is printed whole. The previous
    # cap is restored on return, as main also runs in-process.
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(sys.argv[1:] if argv is None else list(argv))
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def _main(argv: list[str]) -> int:
    args = build_parser(argv).parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        payload, lines = _run(args)
    except CliError as exc:
        if as_json:
            sys.stdout.write(
                render_json({"status": "error", "code": exc.code, "message": str(exc)})
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if as_json:
        sys.stdout.write(render_json({"status": "ok", "payload": payload}))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
