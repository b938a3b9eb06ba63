"""Command line interface.

Algebras travel as JSON files with keys "dim", "unit", "structure"; rationals
are strings like "2/3" (or bare integers as strings). Every subcommand accepts
--json, which wraps the result as {"status": "ok", "payload": ...} or
{"status": "error", "code": ..., "message": ...} with deterministic rendering
(sorted keys, two-space indent). Exit codes: 0 success, 2 input problems
(unreadable files, malformed JSON, bad flag values), 3 mathematical
precondition failures (invalid structure constants, non-ideals, non-idempotent
elements, uncertified or conflicting index data).

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

MAX_PARTITION_RANK = 30

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


def parse_vector_json(text: str, dim: int, what: str) -> tuple[Fraction, ...]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise input_error(f"{what} is not valid JSON: {exc}") from exc
    return _vector_from_obj(raw, dim, what)


def _vector_from_obj(raw, dim: int, what: str) -> tuple[Fraction, ...]:
    if not isinstance(raw, list) or len(raw) != dim:
        raise input_error(f"{what} must be a JSON array of length {dim}")
    out = []
    for x in raw:
        if isinstance(x, bool) or isinstance(x, float):
            raise input_error(f"{what} entries must be integers or rational strings")
        if isinstance(x, int):
            out.append(Fraction(x))
        elif isinstance(x, str):
            try:
                out.append(rat_from_str(x))
            except ValueError as exc:
                raise input_error(f"{what}: {exc}") from exc
        else:
            raise input_error(f"{what} entries must be integers or rational strings")
    return tuple(out)


def parse_subspace_json(text: str, dim: int, what: str) -> Subspace:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise input_error(f"{what} is not valid JSON: {exc}") from exc
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


def cmd_validate(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    payload = {"dim": a.dim, "valid": True, "commutative": a.is_commutative()}
    lines = [
        f"dim: {a.dim}",
        "valid: yes",
        f"commutative: {'yes' if a.is_commutative() else 'no'}",
    ]
    return payload, lines


def cmd_radical(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    report = jacobson_radical(a)
    payload = {
        "radical_dim": report.radical.dim,
        "nilpotency_index": report.nilpotency_index,
        "semisimple_dim": report.quotient.quotient.dim,
        "radical_basis": [vec_json(v) for v in report.radical.vectors()],
    }
    lines = [
        f"radical_dim: {report.radical.dim}",
        f"nilpotency_index: {report.nilpotency_index}",
        f"semisimple_dim: {report.quotient.quotient.dim}",
    ]
    for v in report.radical.vectors():
        lines.append("radical_basis: " + " ".join(vec_json(v)))
    return payload, lines


def cmd_wedderburn(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    radical = jacobson_radical(a)
    w = wedderburn_decomposition(a)
    factors = []
    lines = [
        f"radical_dim: {radical.radical.dim}",
        f"semisimple_dim: {w.semisimple_quotient.dim}",
        f"factors: {len(w.factors)}",
    ]
    for i, f in enumerate(w.factors):
        size = "unknown" if f.matrix_size is None else f.matrix_size
        factors.append(
            {
                "factor_dim": f.factor_dim,
                "center_dim": f.center_dim,
                "degree": f.degree_over_center,
                "matrix_size": size,
                "idempotent": vec_json(f.central_idempotent),
            }
        )
        lines.append(
            f"factor {i}: dim {f.factor_dim}, center {f.center_dim},"
            f" degree {f.degree_over_center}, matrix size {size}"
        )
    payload = {
        "radical_dim": radical.radical.dim,
        "semisimple_dim": w.semisimple_quotient.dim,
        "factors": factors,
    }
    return payload, lines


def cmd_lift_idem(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    element = parse_vector_json(args.idempotent, a.dim, "--idempotent")
    ideal = parse_subspace_json(args.ideal, a.dim, "--ideal")
    try:
        qp = quotient_by_ideal(a, ideal)
        lifted, steps = refine_to_idempotent(qp, element)
    except ValueError as exc:
        raise math_error(str(exc)) from exc
    payload = {"idempotent": vec_json(lifted), "iterations": steps}
    lines = [
        "idempotent: " + " ".join(vec_json(lifted)),
        f"iterations: {steps}",
    ]
    return payload, lines


def _report(report) -> tuple[dict, list[str]]:
    value = "-infinity" if report.value is None else rat_to_str(report.value)
    lines = [f"value: {value}", f"kind: {report.kind}", f"formula: {report.formula}"]
    for note in report.assumptions:
        lines.append(f"assumption: {note}")
    return report.to_json_dict(), lines


def cmd_ed_csa(args) -> tuple[dict, list[str]]:
    return _report(bound_csa(args.deg, parse_rational_flag(args.rank, "--rank")))


def cmd_ed_division(args) -> tuple[dict, list[str]]:
    return _report(bound_division(args.deg, args.d))


def cmd_ed_karpenko(args) -> tuple[dict, list[str]]:
    return _report(karpenko_value(args.p, args.n, args.m))


def cmd_ed_ckm(args) -> tuple[dict, list[str]]:
    return _report(ckm_value(args.deg))


_ASSERT_INDEX_RE = re.compile(r"^(\d+):(\d+)$")


def _asserted_indices(specs: Sequence[str]) -> dict[int, int]:
    """The --assert-index values as factor -> index. Checks their syntax and
    that no factor gets two indices; the factor range needs the algebra."""
    asserted: dict[int, int] = {}
    for spec in specs:
        m = _ASSERT_INDEX_RE.match(spec)
        if not m:
            raise input_error(
                f"--assert-index expects FACTOR:INDEX with nonnegative integers, got {spec!r}"
            )
        pos, idx = int(m.group(1)), int(m.group(2))
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
    asserted: list[int | None] | None = None
    if given:
        asserted = [None] * len(w.factors)
        for pos, idx in given.items():
            if pos >= len(w.factors):
                raise input_error(
                    f"--assert-index names factor {pos} but there are only {len(w.factors)} factors"
                )
            asserted[pos] = idx
    try:
        report = bound_from_wedderburn(w, args.d, asserted_indices=asserted, r=r)
    except ValueError as exc:
        raise math_error(str(exc)) from exc
    return _report(report)


def cmd_ed_bundle(args) -> tuple[dict, list[str]]:
    return _report(
        bundle_moduli_ed(args.genus, args.rank, args.degree, assume_ckm=args.assume_ckm)
    )


def cmd_ed_nil_dim(args) -> tuple[dict, list[str]]:
    partition = parse_partition(args.partition)
    dim = nil_stack_dim(args.genus, partition)
    trdeg = int(trdeg_bound_indecomposable(args.genus, partition).value)
    payload = {
        "genus": args.genus,
        "partition": list(partition.parts),
        "dim": dim,
        "moduli_trdeg_bound": trdeg,
    }
    lines = [
        f"genus: {args.genus}",
        "partition: " + ",".join(str(p) for p in partition.parts),
        f"dim: {dim}",
        f"moduli_trdeg_bound: {trdeg}",
    ]
    return payload, lines


def cmd_ed_partitions(args) -> tuple[dict, list[str]]:
    if args.rank > MAX_PARTITION_RANK:
        raise input_error(f"rank {args.rank} exceeds the partition enumeration cap {MAX_PARTITION_RANK}")
    check = partition_square_sum_check(args.rank)
    payload = {
        "rank": check.rank,
        "max_square_sum": check.max_square_sum,
        "predicted": check.predicted,
        "witness": list(check.witness.parts),
        "attained": check.attained,
    }
    lines = [
        f"rank: {check.rank}",
        f"max_square_sum: {check.max_square_sum}",
        f"predicted: {check.predicted}",
        "witness: " + ",".join(str(p) for p in check.witness.parts),
        f"attained: {'yes' if check.attained else 'no'}",
    ]
    return payload, lines


_GROUP_CYCLIC_RE = re.compile(r"^c(\d+)$")
_GROUP_PRODUCT_RE = re.compile(r"^c(\d+)xc(\d+)$")


def _group_table_by_name(name: str) -> list[list[int]]:
    if name == "s3":
        return symmetric3_table()
    m = _GROUP_CYCLIC_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise input_error("cyclic group order must be positive")
        return cyclic_table(n)
    m = _GROUP_PRODUCT_RE.match(name)
    if m:
        n1, n2 = int(m.group(1)), int(m.group(2))
        if n1 < 1 or n2 < 1:
            raise input_error("cyclic group orders must be positive")
        return product_table(cyclic_table(n1), cyclic_table(n2))
    raise input_error(
        f"unknown group {name!r}; use cN, cNxcM, or s3"
    )


def cmd_gen(args) -> tuple[dict, list[str]]:
    kind = args.kind
    if kind == "matrix":
        a = matrix_algebra(args.size)
    elif kind == "upper-triangular":
        a = upper_triangular(args.size)
    elif kind == "dual-numbers":
        a = dual_numbers()
    elif kind == "quaternions":
        pa = parse_rational_flag(args.a, "first quaternion parameter")
        pb = parse_rational_flag(args.b, "second quaternion parameter")
        a = quaternions(pa, pb)
    elif kind == "group":
        a = group_algebra(_group_table_by_name(args.name))
    elif kind == "fixture":
        try:
            spec = fixture_by_name(args.name)
        except KeyError:
            names = ", ".join(s.name for s in fixtures())
            raise input_error(f"unknown fixture {args.name!r}; available: {names}") from None
        a = spec.build()
    payload = a.to_json_dict()
    # The bare output is itself the algebra JSON so it can be piped to a file
    # and fed back into the file-based commands.
    lines = [render_json(payload).rstrip("\n")]
    return payload, lines


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
        cmd_ed_csa,
    ),
    (
        ("ed", "division"),
        "rank-1/d modules over a division algebra",
        (_arg("--deg", type=int, required=True), _arg("--d", type=int, required=True)),
        cmd_ed_division,
    ),
    (
        ("ed", "karpenko"),
        "prime power degree exact value",
        (
            _arg("--p", type=int, required=True),
            _arg("--n", type=int, required=True),
            _arg("--m", type=int, required=True),
        ),
        cmd_ed_karpenko,
    ),
    (("ed", "ckm"), "conjectural exact value for rank 1/deg", (_arg("--deg", type=int, required=True),), cmd_ed_ckm),
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
        cmd_ed_bundle,
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
    (("gen",), "emit a built-in algebra as JSON", (), cmd_gen),
    (("gen", "matrix"), None, (_arg("size", type=int),), None),
    (("gen", "upper-triangular"), None, (_arg("size", type=int),), None),
    (("gen", "dual-numbers"), None, (), None),
    (
        ("gen", "quaternions"),
        None,
        (
            _arg("a", help="square of the first generator, for example -1"),
            _arg("b", help="square of the second generator"),
        ),
        None,
    ),
    (("gen", "group"), None, (_arg("name", help="cN, cNxcM, or s3"),), None),
    (("gen", "fixture"), None, (_arg("name", help="name of a built-in fixture algebra"),), None),
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
    argv = sys.argv[1:] if argv is None else list(argv)
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
