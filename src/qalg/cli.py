"""Command line interface.

Algebras travel as JSON files with keys "dim", "unit", "structure"; rationals
are strings like "2/3" (or bare integers as strings). Every subcommand accepts
--json, which wraps the result as {"status": "ok", "payload": ...} or
{"status": "error", "code": ..., "message": ...} with deterministic rendering
(sorted keys, two-space indent). Exit codes: 0 success, 2 input problems
(unreadable files, malformed JSON, bad flag values), 3 mathematical
precondition failures (invalid structure constants, non-ideals, non-idempotent
elements, uncertified or conflicting index data).
"""

from __future__ import annotations

import argparse
import json
import os
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

MAX_PARTITION_RANK_ENV = "QALG_MAX_PARTITION_RANK"
DEFAULT_MAX_PARTITION_RANK = 30

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
    try:
        return Partition(tuple(sorted(parts, reverse=True)))
    except ValueError as exc:
        raise input_error(str(exc)) from exc


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
    except (QalgError, ValueError) as exc:
        raise math_error(str(exc)) from exc
    payload = {"idempotent": vec_json(lifted), "iterations": steps}
    lines = [
        "idempotent: " + " ".join(vec_json(lifted)),
        f"iterations: {steps}",
    ]
    return payload, lines


def _report_lines(report) -> list[str]:
    value = "-infinity" if report.value is None else rat_to_str(report.value)
    lines = [f"value: {value}", f"kind: {report.kind}", f"formula: {report.formula}"]
    for note in report.assumptions:
        lines.append(f"assumption: {note}")
    return lines


def cmd_ed_csa(args) -> tuple[dict, list[str]]:
    r = parse_rational_flag(args.rank, "--rank")
    try:
        report = bound_csa(args.deg, r)
    except ValueError as exc:
        raise input_error(str(exc)) from exc
    return report.to_json_dict(), _report_lines(report)


def cmd_ed_division(args) -> tuple[dict, list[str]]:
    try:
        report = bound_division(args.deg, args.d)
    except QalgError as exc:
        raise math_error(str(exc)) from exc
    except ValueError as exc:
        raise input_error(str(exc)) from exc
    return report.to_json_dict(), _report_lines(report)


def cmd_ed_karpenko(args) -> tuple[dict, list[str]]:
    try:
        report = karpenko_value(args.p, args.n, args.m)
    except ValueError as exc:
        raise input_error(str(exc)) from exc
    return report.to_json_dict(), _report_lines(report)


def cmd_ed_ckm(args) -> tuple[dict, list[str]]:
    try:
        report = ckm_value(args.deg)
    except ValueError as exc:
        raise input_error(str(exc)) from exc
    return report.to_json_dict(), _report_lines(report)


_ASSERT_INDEX_RE = re.compile(r"^(\d+):(\d+)$")


def cmd_ed_algebra(args) -> tuple[dict, list[str]]:
    a = validated_algebra(args.file)
    if args.d < 1:
        raise input_error("--d must be a positive integer")
    r = parse_rational_flag(args.rank, "--rank") if args.rank is not None else None
    if r is not None and r <= 0:
        raise input_error("--rank must be positive")
    w = wedderburn_decomposition(a)
    asserted: list[int | None] | None = None
    if args.assert_index:
        asserted = [None] * len(w.factors)
        for spec in args.assert_index:
            m = _ASSERT_INDEX_RE.match(spec)
            if not m:
                raise input_error(
                    f"--assert-index expects FACTOR:INDEX with nonnegative integers, got {spec!r}"
                )
            pos, idx = int(m.group(1)), int(m.group(2))
            if pos >= len(w.factors):
                raise input_error(
                    f"--assert-index names factor {pos} but there are only {len(w.factors)} factors"
                )
            if asserted[pos] not in (None, idx):
                raise input_error(
                    f"--assert-index gives factor {pos} two indices, {asserted[pos]} and {idx}"
                )
            asserted[pos] = idx
    try:
        report = bound_from_wedderburn(w, args.d, asserted_indices=asserted, r=r)
    except (QalgError, ValueError) as exc:
        raise math_error(str(exc)) from exc
    return report.to_json_dict(), _report_lines(report)


def cmd_ed_bundle(args) -> tuple[dict, list[str]]:
    try:
        report = bundle_moduli_ed(args.genus, args.rank, args.degree, assume_ckm=args.assume_ckm)
    except ValueError as exc:
        raise input_error(str(exc)) from exc
    return report.to_json_dict(), _report_lines(report)


def cmd_ed_nil_dim(args) -> tuple[dict, list[str]]:
    partition = parse_partition(args.partition)
    try:
        dim = nil_stack_dim(args.genus, partition)
        trdeg = int(trdeg_bound_indecomposable(args.genus, partition).value)
    except ValueError as exc:
        raise input_error(str(exc)) from exc
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
    cap_text = os.environ.get(MAX_PARTITION_RANK_ENV)
    cap = DEFAULT_MAX_PARTITION_RANK
    if cap_text is not None:
        try:
            cap = int(cap_text)
        except ValueError as exc:
            raise input_error(
                f"{MAX_PARTITION_RANK_ENV} must be an integer, got {cap_text!r}"
            ) from exc
    if args.rank > cap:
        raise input_error(
            f"rank {args.rank} exceeds the partition enumeration cap {cap}"
            f" (raise {MAX_PARTITION_RANK_ENV} to override)"
        )
    try:
        check = partition_square_sum_check(args.rank)
    except ValueError as exc:
        raise input_error(str(exc)) from exc
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
        if args.size < 1:
            raise input_error("matrix size must be a positive integer")
        a = matrix_algebra(args.size)
    elif kind == "upper-triangular":
        if args.size < 1:
            raise input_error("matrix size must be a positive integer")
        a = upper_triangular(args.size)
    elif kind == "dual-numbers":
        a = dual_numbers()
    elif kind == "quaternions":
        pa = parse_rational_flag(args.a, "first quaternion parameter")
        pb = parse_rational_flag(args.b, "second quaternion parameter")
        if pa == 0 or pb == 0:
            raise input_error("quaternion parameters must be nonzero")
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON envelope"
    )

    parser = argparse.ArgumentParser(
        prog="qalg",
        description="Exact structure computations for finite-dimensional"
        " rational algebras, and essential-dimension style bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check structure constants")
    p.add_argument("file", help="algebra JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("radical", parents=[common], help="radical and nilpotency index")
    p.add_argument("file", help="algebra JSON file")
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("wedderburn", parents=[common], help="simple factor decomposition")
    p.add_argument("file", help="algebra JSON file")
    p.set_defaults(func=cmd_wedderburn)

    p = sub.add_parser(
        "lift-idem",
        parents=[common],
        help="refine an element idempotent modulo a nilpotent ideal",
    )
    p.add_argument("file", help="algebra JSON file")
    p.add_argument("--idempotent", required=True, help="JSON vector in algebra coordinates")
    p.add_argument("--ideal", required=True, help="JSON array of spanning vectors")
    p.set_defaults(func=cmd_lift_idem)

    ed = sub.add_parser("ed", help="essential-dimension style bounds")
    edsub = ed.add_subparsers(dest="ed_command", required=True)

    p = edsub.add_parser("csa", parents=[common], help="rank-r modules over a degree-deg algebra")
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--rank", required=True, help="rational rank, for example 1/3")
    p.set_defaults(func=cmd_ed_csa)

    p = edsub.add_parser("division", parents=[common], help="rank-1/d modules over a division algebra")
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_ed_division)

    p = edsub.add_parser("karpenko", parents=[common], help="prime power degree exact value")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_ed_karpenko)

    p = edsub.add_parser("ckm", parents=[common], help="conjectural exact value for rank 1/deg")
    p.add_argument("--deg", type=int, required=True)
    p.set_defaults(func=cmd_ed_ckm)

    p = edsub.add_parser(
        "algebra",
        parents=[common],
        help="bound for rank-1/d modules over an algebra file",
    )
    p.add_argument("file", help="algebra JSON file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rank", default=None, help="override the module rank (default 1/d)")
    p.add_argument(
        "--assert-index",
        action="append",
        default=[],
        metavar="FACTOR:INDEX",
        help="assert the division algebra index of a factor with an"
        " uncertified matrix size; repeatable",
    )
    p.set_defaults(func=cmd_ed_algebra)

    p = edsub.add_parser("bundle", parents=[common], help="bundle moduli essential dimension")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--assume-ckm", action="store_true")
    p.set_defaults(func=cmd_ed_bundle)

    p = edsub.add_parser("nil-dim", parents=[common], help="nilpotent stratum dimension")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--partition", required=True, help="comma-separated parts, for example 2,1")
    p.set_defaults(func=cmd_ed_nil_dim)

    p = edsub.add_parser("partitions", parents=[common], help="maximize sum of squared parts")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_ed_partitions)

    p = sub.add_parser("gen", help="emit a built-in algebra as JSON")
    p.set_defaults(func=cmd_gen)
    gensub = p.add_subparsers(dest="kind", required=True)

    g = gensub.add_parser("matrix", parents=[common])
    g.add_argument("size", type=int)

    g = gensub.add_parser("upper-triangular", parents=[common])
    g.add_argument("size", type=int)

    gensub.add_parser("dual-numbers", parents=[common])

    g = gensub.add_parser("quaternions", parents=[common])
    g.add_argument("a", help="square of the first generator, for example -1")
    g.add_argument("b", help="square of the second generator")

    g = gensub.add_parser("group", parents=[common])
    g.add_argument("name", help="cN, cNxcM, or s3")

    g = gensub.add_parser("fixture", parents=[common])
    g.add_argument("name", help="name of a built-in fixture algebra")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        payload, lines = args.func(args)
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
