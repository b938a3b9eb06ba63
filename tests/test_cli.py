"""End-to-end tests for the command line interface.

main() is called in-process; JSON-mode outputs are compared byte for byte
against envelopes rebuilt from direct library calls, which pins down the
serialization (sorted keys, two-space indent, trailing newline)."""

import json

import pytest

import qalg.cli
from qalg.algebra import FDAlgebra
from qalg.cli import main, render_json
from qalg.edbounds import (
    bound_csa,
    bound_division,
    bundle_moduli_ed,
    karpenko_value,
    partition_square_sum_check,
)
from qalg.errors import NotDivisorError
from qalg.structure import jacobson_radical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_algebra(capsys, tmp_path, name, *gen_args):
    code, out, _ = run(capsys, "gen", *gen_args)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path)


class TestGen:
    def test_bare_output_is_algebra_json(self, capsys):
        code, out, err = run(capsys, "gen", "matrix", "2")
        assert code == 0 and err == ""
        from qalg.algebra import matrix_algebra

        assert out == render_json(matrix_algebra(2).to_json_dict())

    def test_json_envelope(self, capsys):
        from qalg.algebra import dual_numbers

        code, out, _ = run(capsys, "gen", "dual-numbers", "--json")
        assert code == 0
        assert out == render_json({"status": "ok", "payload": dual_numbers().to_json_dict()})

    def test_output_round_trips_through_the_loader(self, capsys, tmp_path):
        for args in (
            ("matrix", "2"),
            ("upper-triangular", "3"),
            ("dual-numbers",),
            ("group", "s3"),
            ("group", "c4"),
            ("group", "c2xc2"),
            ("fixture", "product-q-dual"),
        ):
            code, out, _ = run(capsys, "gen", *args)
            assert code == 0
            FDAlgebra.from_json_dict(json.loads(out)).validate()

    def test_quaternion_parameters_after_double_dash(self, capsys):
        code, out, _ = run(capsys, "gen", "quaternions", "--", "-1", "-1")
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_rational_quaternion_parameters(self, capsys):
        code, out, _ = run(capsys, "gen", "quaternions", "1/2", "3")
        assert code == 0
        FDAlgebra.from_json_dict(json.loads(out)).validate()

    def test_zero_quaternion_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "quaternions", "0", "1")
        assert code == 2
        assert "nonzero" in err

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "gen", "group", "d4")
        assert code == 2
        assert "unknown group" in err

    def test_unknown_fixture_lists_choices(self, capsys):
        code, _, err = run(capsys, "gen", "fixture", "nope")
        assert code == 2
        assert "available:" in err and "quaternions" in err

    def test_bad_matrix_size(self, capsys):
        for kind in ("matrix", "upper-triangular"):
            code, _, err = run(capsys, "gen", kind, "0")
            assert code == 2, kind
            assert "size must be at least 1" in err, kind

    @pytest.mark.parametrize(
        "args, missing",
        [
            (("matrix",), "size"),
            (("upper-triangular",), "size"),
            (("quaternions", "2"), "b"),
            (("group",), "name"),
            (("fixture",), "name"),
        ],
    )
    def test_missing_positional_exits_2(self, capsys, args, missing):
        with pytest.raises(SystemExit) as exc:
            main(["gen", *args])
        assert exc.value.code == 2
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err


class TestValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 0
        assert json.loads(out)["payload"] == {"commutative": False, "dim": 4, "valid": True}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 2
        assert "cannot read" in err

    def test_unparseable_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    def test_schema_violation(self, capsys, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"dim": 1, "unit": ["1"]}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "missing key" in err

    @pytest.mark.parametrize(
        "key, value",
        [("unit", "10"), ("structure", [[["1", "0"], "01"], [["0", "1"], ["0", "0"]]])],
    )
    def test_string_in_place_of_array(self, capsys, tmp_path, key, value):
        obj = {
            "dim": 2,
            "unit": ["1", "0"],
            "structure": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
        }
        obj[key] = value
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "radical", str(path))
        assert code == 2
        assert "must be a JSON array" in err

    def test_bool_dim(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"dim": True, "unit": ["1"], "structure": [[["1"]]]}))
        code, _, err = run(capsys, "radical", str(path))
        assert code == 2
        assert "dim must be a positive integer" in err

    def test_non_associative_structure(self, capsys, tmp_path):
        bad = {
            "dim": 3,
            "unit": ["1", "0", "0"],
            "structure": [
                [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
                [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "associativity" in err

    def test_json_error_envelope(self, capsys, tmp_path):
        path = tmp_path / "schema2.json"
        path.write_text(json.dumps({"dim": 2}))
        code, out, err = run(capsys, "validate", str(path), "--json")
        assert code == 2 and err == ""
        envelope = json.loads(out)
        assert envelope["status"] == "error"
        assert envelope["code"] == "input"
        assert "missing key" in envelope["message"]


class TestRadical:
    def test_dual_numbers_byte_exact(self, capsys, tmp_path):
        from qalg.algebra import dual_numbers

        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        report = jacobson_radical(dual_numbers())
        expected = {
            "radical_dim": 1,
            "nilpotency_index": 2,
            "semisimple_dim": 1,
            "radical_basis": [["0", "1"]],
        }
        assert report.radical.dim == expected["radical_dim"]
        code, out, _ = run(capsys, "radical", path, "--json")
        assert code == 0
        assert out == render_json({"status": "ok", "payload": expected})

    def test_human_mode_lines(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "ut3.json", "upper-triangular", "3")
        code, out, _ = run(capsys, "radical", path)
        assert code == 0
        assert "radical_dim: 3" in out
        assert "nilpotency_index: 3" in out
        assert "semisimple_dim: 3" in out


class TestWedderburn:
    def test_symmetric_group_factors(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "s3.json", "group", "s3")
        code, out, _ = run(capsys, "wedderburn", path, "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["radical_dim"] == 0
        assert payload["semisimple_dim"] == 6
        assert sorted(f["factor_dim"] for f in payload["factors"]) == [1, 1, 4]
        big = max(payload["factors"], key=lambda f: f["factor_dim"])
        assert big["matrix_size"] == 2 and big["degree"] == 2

    def test_quaternions_report_unknown_size(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "q.json", "quaternions", "--", "-1", "-1")
        code, out, _ = run(capsys, "wedderburn", path, "--json")
        assert code == 0
        factors = json.loads(out)["payload"]["factors"]
        assert len(factors) == 1
        assert factors[0]["matrix_size"] == "unknown"
        assert factors[0]["degree"] == 2

    def test_radical_is_removed_first(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "md.json", "fixture", "matrix-2-dual")
        code, out, _ = run(capsys, "wedderburn", path, "--json")
        payload = json.loads(out)["payload"]
        assert payload["radical_dim"] == 4
        assert [f["factor_dim"] for f in payload["factors"]] == [4]


class TestLiftIdem:
    def test_triangular_unit_perturbation(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "ut2.json", "upper-triangular", "2")
        code, out, _ = run(
            capsys,
            "lift-idem",
            path,
            "--idempotent",
            "[1,1,1]",
            "--ideal",
            "[[0,1,0]]",
            "--json",
        )
        assert code == 0
        assert out == render_json(
            {"status": "ok", "payload": {"idempotent": ["1", "0", "1"], "iterations": 1}}
        )

    def test_already_idempotent(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        code, out, _ = run(
            capsys, "lift-idem", path, "--idempotent", "[1,0]", "--ideal", "[[0,1]]", "--json"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload == {"idempotent": ["1", "0"], "iterations": 0}

    def test_whole_algebra_ideal_rejected(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        code, _, err = run(
            capsys, "lift-idem", path, "--idempotent", "[1,0]", "--ideal", "[[1,0],[0,1]]"
        )
        assert code == 3

    def test_non_ideal_rejected(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, _, err = run(
            capsys, "lift-idem", path, "--idempotent", "[1,0,0,0]", "--ideal", "[[1,0,0,0]]"
        )
        assert code == 3
        assert "ideal" in err

    def test_class_not_idempotent(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        code, _, err = run(
            capsys, "lift-idem", path, "--idempotent", "[2,0]", "--ideal", "[[0,1]]"
        )
        assert code == 3

    def test_vector_length_checked(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        code, _, err = run(
            capsys, "lift-idem", path, "--idempotent", "[1,0,0]", "--ideal", "[[0,1]]"
        )
        assert code == 2
        assert "length 2" in err

    def test_float_entries_rejected(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        code, _, err = run(
            capsys, "lift-idem", path, "--idempotent", "[0.5,0]", "--ideal", "[[0,1]]"
        )
        assert code == 2

    def test_bool_entries_rejected(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "dual.json", "dual-numbers")
        code, _, err = run(
            capsys, "lift-idem", path, "--idempotent", "[true,false]", "--ideal", "[[0,1]]"
        )
        assert code == 2


class TestEdFormulas:
    def test_csa_byte_exact(self, capsys):
        from fractions import Fraction

        code, out, _ = run(capsys, "ed", "csa", "--deg", "6", "--rank", "1/6", "--json")
        assert code == 0
        expected = bound_csa(6, Fraction(1, 6)).to_json_dict()
        assert out == render_json({"status": "ok", "payload": expected})

    def test_csa_unrealizable_rank_is_ok_not_error(self, capsys):
        code, out, _ = run(capsys, "ed", "csa", "--deg", "2", "--rank", "1/3", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["kind"] == "minus_infinity"
        assert payload["value"] is None

    def test_csa_rank_out_of_range(self, capsys):
        code, _, _ = run(capsys, "ed", "csa", "--deg", "2", "--rank", "3/2")
        assert code == 2

    def test_csa_bad_rank_string(self, capsys):
        code, _, err = run(capsys, "ed", "csa", "--deg", "2", "--rank", "0.5")
        assert code == 2

    def test_division_byte_exact(self, capsys):
        code, out, _ = run(capsys, "ed", "division", "--deg", "6", "--d", "6", "--json")
        assert code == 0
        assert out == render_json(
            {"status": "ok", "payload": bound_division(6, 6).to_json_dict()}
        )

    def test_division_non_divisor_is_math_error(self, capsys):
        code, out, _ = run(capsys, "ed", "division", "--deg", "6", "--d", "4", "--json")
        assert code == 3
        envelope = json.loads(out)
        assert envelope["status"] == "error" and envelope["code"] == "math"

    def test_math_error_from_any_handler_exits_3(self, capsys, monkeypatch):
        def raises(*args):
            raise NotDivisorError("patched precondition failure")

        monkeypatch.setattr(qalg.cli, "bound_csa", raises)
        code, out, _ = run(capsys, "ed", "csa", "--deg", "6", "--rank", "1/6", "--json")
        assert code == 3
        assert out == render_json(
            {"status": "error", "code": "math", "message": "patched precondition failure"}
        )

    def test_division_bad_degree(self, capsys):
        code, _, _ = run(capsys, "ed", "division", "--deg", "0", "--d", "1")
        assert code == 2

    def test_karpenko(self, capsys):
        code, out, _ = run(
            capsys, "ed", "karpenko", "--p", "2", "--n", "2", "--m", "1", "--json"
        )
        assert code == 0
        assert out == render_json(
            {"status": "ok", "payload": karpenko_value(2, 2, 1).to_json_dict()}
        )

    def test_karpenko_range_violation(self, capsys):
        code, _, _ = run(capsys, "ed", "karpenko", "--p", "2", "--n", "2", "--m", "0")
        assert code == 2

    def test_ckm_human_lines(self, capsys):
        code, out, _ = run(capsys, "ed", "ckm", "--deg", "12")
        assert code == 0
        assert "value: 5" in out
        assert "kind: conjectural_exact" in out


class TestEdAlgebra:
    def test_split_group_algebra_with_fractional_rank(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "s3.json", "group", "s3")
        code, out, _ = run(capsys, "ed", "algebra", path, "--d", "2", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["kind"] == "minus_infinity"

    def test_unit_denominator_contributes_nothing(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "ut2.json", "upper-triangular", "2")
        code, out, _ = run(capsys, "ed", "algebra", path, "--d", "1", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["value"] == "0"

    def test_uncertified_index_needs_assertion(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "q.json", "quaternions", "--", "-1", "-1")
        code, out, _ = run(capsys, "ed", "algebra", path, "--d", "2", "--json")
        assert code == 3
        assert json.loads(out)["code"] == "math"

    def test_asserted_index_unlocks_the_bound(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "q.json", "quaternions", "--", "-1", "-1")
        code, out, _ = run(
            capsys,
            "ed",
            "algebra",
            path,
            "--d",
            "2",
            "--assert-index",
            "0:2",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["value"] == "1"
        assert any("assert" in s for s in payload["assumptions"])

    def test_conflicting_assertion_is_math_error(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, _, err = run(
            capsys, "ed", "algebra", path, "--d", "2", "--assert-index", "0:2"
        )
        assert code == 3

    def test_malformed_assertion(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, _, err = run(capsys, "ed", "algebra", path, "--d", "2", "--assert-index", "x")
        assert code == 2
        assert "FACTOR:INDEX" in err

    def test_two_indices_for_one_factor_is_input_error(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "q.json", "quaternions", "--", "-1", "-1")
        flags = ("--d", "2", "--assert-index", "0:1", "--assert-index", "0:2")
        code, out, err = run(capsys, "ed", "algebra", path, *flags)
        assert code == 2 and out == ""
        assert "factor 0" in err
        # An exact repeat is the same assertion, so it is accepted.
        code, out, _ = run(capsys, "ed", "algebra", path, "--d", "2", "--assert-index", "0:2", "--assert-index", "0:2")
        assert code == 0 and out.startswith("value: 1\n")

    def test_assertion_for_missing_factor(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, _, err = run(capsys, "ed", "algebra", path, "--d", "2", "--assert-index", "9:2")
        assert code == 2

    def test_bad_denominator(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, _, _ = run(capsys, "ed", "algebra", path, "--d", "0")
        assert code == 2

    def test_nonpositive_rank_is_input_error(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        for flag in ("--rank", "0"), ("--rank=-1/2",):
            code, out, _ = run(capsys, "ed", "algebra", path, "--d", "2", *flag, "--json")
            assert code == 2
            assert json.loads(out) == {
                "status": "error",
                "code": "input",
                "message": "--rank must be positive",
            }

    def test_explicit_rank_override(self, capsys, tmp_path):
        path = write_algebra(capsys, tmp_path, "m2.json", "matrix", "2")
        code, out, _ = run(
            capsys, "ed", "algebra", path, "--d", "1", "--rank", "3/2", "--json"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert any("rank" in s for s in payload["assumptions"])


class TestEdBundleAndStacks:
    def test_bundle_byte_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "ed",
            "bundle",
            "--genus",
            "2",
            "--rank",
            "2",
            "--degree",
            "0",
            "--json",
        )
        assert code == 0
        assert out == render_json(
            {"status": "ok", "payload": bundle_moduli_ed(2, 2, 0).to_json_dict()}
        )

    def test_bundle_genus_one_exact(self, capsys):
        code, out, _ = run(
            capsys, "ed", "bundle", "--genus", "1", "--rank", "4", "--degree", "0", "--json"
        )
        payload = json.loads(out)["payload"]
        assert (payload["value"], payload["kind"]) == ("4", "exact")

    def test_bundle_assume_ckm(self, capsys):
        code, out, _ = run(
            capsys,
            "ed",
            "bundle",
            "--genus",
            "2",
            "--rank",
            "2",
            "--degree",
            "0",
            "--assume-ckm",
            "--json",
        )
        payload = json.loads(out)["payload"]
        assert payload["kind"] == "exact"
        assert payload["value"] == "6"

    def test_nil_dim(self, capsys):
        code, out, _ = run(
            capsys, "ed", "nil-dim", "--genus", "3", "--partition", "2,1", "--json"
        )
        assert code == 0
        assert json.loads(out)["payload"] == {
            "genus": 3,
            "partition": [2, 1],
            "dim": 10,
            "moduli_trdeg_bound": 11,
        }

    def test_nil_dim_sorts_parts(self, capsys):
        code, out, _ = run(
            capsys, "ed", "nil-dim", "--genus", "2", "--partition", "1,2", "--json"
        )
        assert json.loads(out)["payload"]["partition"] == [2, 1]

    def test_nil_dim_bad_partition(self, capsys):
        code, _, _ = run(capsys, "ed", "nil-dim", "--genus", "2", "--partition", "a,b")
        assert code == 2
        code, _, _ = run(capsys, "ed", "nil-dim", "--genus", "2", "--partition", "0")
        assert code == 2


class TestEdPartitions:
    def test_witness_payload(self, capsys):
        code, out, _ = run(capsys, "ed", "partitions", "--rank", "5", "--json")
        assert code == 0
        check = partition_square_sum_check(5)
        assert out == render_json(
            {
                "status": "ok",
                "payload": {
                    "rank": 5,
                    "max_square_sum": check.max_square_sum,
                    "predicted": check.predicted,
                    "witness": [4, 1],
                    "attained": True,
                },
            }
        )

    def test_default_cap(self, capsys):
        code, _, err = run(capsys, "ed", "partitions", "--rank", "31")
        assert code == 2
        assert "rank 31 exceeds the partition enumeration cap 30" in err
        code, out, _ = run(capsys, "ed", "partitions", "--rank", "30", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["rank"] == 30

    def test_rank_below_two(self, capsys):
        code, _, _ = run(capsys, "ed", "partitions", "--rank", "1")
        assert code == 2
