"""Tests for the fixture corpus and the independent oracles of tests/oracles.py.

The golden numbers asserted here (radical dimension, nilpotency index) come
from the hand derivations recorded on each fixture's `oracle` field, not from
running the library; the Hom dimensions are classical values: for a matrix
algebra, Hom(eA, fA) has dimension dim(fAe)."""

import ast
from pathlib import Path

import pytest

import oracles
import qalg.corpus
import qalg.structure
from qalg.algebra import direct_product, dual_numbers, group_algebra, matrix_algebra, Subspace
from qalg.corpus import (
    cyclic_table,
    fixture_by_name,
    fixtures,
    product_table,
    symmetric3_table,
)
from qalg.errors import NotAnIdealError, NotNilpotentError
from qalg.modules import IdempotentMatrix, projective_module
from qalg.structure import jacobson_radical

from oracles import hom_dim_oracle, nilpotency_oracle


def module(a, entries):
    return projective_module(IdempotentMatrix(a, entries))


EXPECTED_NAMES = [
    "rationals",
    "rationals-squared",
    "dual-numbers",
    "upper-triangular-2",
    "upper-triangular-3",
    "upper-triangular-4",
    "matrix-2",
    "matrix-3",
    "group-c2",
    "group-c3",
    "group-c4",
    "group-c2xc2",
    "group-s3",
    "quaternions",
    "matrix-2-dual",
    "product-q-dual",
    "product-dual-matrix2",
]


class TestGroupTables:
    def test_cyclic_table_is_addition_mod_n(self):
        t = cyclic_table(5)
        for i in range(5):
            for j in range(5):
                assert t[i][j] == (i + j) % 5

    def test_product_table_dimensions(self):
        t = product_table(cyclic_table(2), cyclic_table(3))
        assert len(t) == 6
        group_algebra(t).validate()

    def test_symmetric3_table_shape(self):
        t = symmetric3_table()
        assert len(t) == 6
        assert sorted(t[0]) == list(range(6))
        # non-abelian: some pair fails to commute
        assert any(t[i][j] != t[j][i] for i in range(6) for j in range(6))


class TestFixtureCorpus:
    def test_names_are_exactly_the_published_set(self):
        assert [f.name for f in fixtures()] == EXPECTED_NAMES

    def test_lookup_by_name(self):
        f = fixture_by_name("quaternions")
        assert f.name == "quaternions"
        with pytest.raises(KeyError):
            fixture_by_name("octonions")

    def test_every_fixture_validates(self):
        for f in fixtures():
            f.build().validate()

    def test_every_fixture_has_an_oracle_note(self):
        for f in fixtures():
            assert f.expected.oracle.strip()

    def test_golden_radical_data(self):
        for f in fixtures():
            a = f.build()
            report = jacobson_radical(a)
            assert report.radical.dim == f.expected.radical_dim, f.name
            assert report.nilpotency_index == f.expected.nilpotency_index, f.name

    def test_builders_are_reproducible(self):
        for f in fixtures():
            assert f.build() == f.build()


class TestNilpotencyOracle:
    def test_zero_ideal(self):
        a = dual_numbers()
        assert nilpotency_oracle(a, Subspace(2, [])) == 1

    def test_strict_triangular_part(self):
        from qalg.algebra import upper_triangular

        u = upper_triangular(3)
        strict = Subspace(6, [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
        assert nilpotency_oracle(u, strict) == 3

    def test_non_nilpotent_ideal_rejected(self):
        p2 = direct_product([matrix_algebra(1), matrix_algebra(1)])
        with pytest.raises(NotNilpotentError):
            nilpotency_oracle(p2, Subspace(2, [[1, 0]]))

    def test_non_ideal_rejected(self):
        m = matrix_algebra(2)
        with pytest.raises(NotAnIdealError):
            nilpotency_oracle(m, Subspace(4, [[1, 0, 0, 0]]))

    def test_does_not_call_the_pipeline_powering(self, monkeypatch):
        # Reports first: the radical pipeline itself powers the radical.
        reports = [(f, f.build()) for f in fixtures()]
        reports = [(f, a, jacobson_radical(a)) for f, a in reports]

        def pipeline(*args):
            raise AssertionError("oracle used the pipeline's subspace powering")

        monkeypatch.setattr(qalg.structure, "_ideal_nilpotency_index", pipeline)
        monkeypatch.setattr(qalg.structure, "_subspace_product", pipeline)
        self.test_zero_ideal()
        self.test_strict_triangular_part()
        self.test_non_nilpotent_ideal_rejected()
        self.test_non_ideal_rejected()
        for f, a, report in reports:
            assert nilpotency_oracle(a, report.radical) == f.expected.nilpotency_index, f.name

    def test_agrees_with_radical_reports(self):
        for f in fixtures():
            a = f.build()
            report = jacobson_radical(a)
            assert nilpotency_oracle(a, report.radical) == report.nilpotency_index


class TestHomDimOracle:
    def test_endomorphisms_of_the_base_field(self):
        r1 = matrix_algebra(1)
        free = module(r1, [[r1.unit]])
        assert hom_dim_oracle(free, free) == 1

    def test_regular_module_endomorphisms_have_algebra_dimension(self):
        # End(A_A) is isomorphic to A acting by left multiplication
        for a in [matrix_algebra(2), dual_numbers(), group_algebra(cyclic_table(3))]:
            free = module(a, [[a.unit]])
            assert hom_dim_oracle(free, free) == a.dim

    def test_column_module_of_matrix_algebra(self):
        m2 = matrix_algebra(2)
        col = module(m2, [[(1, 0, 0, 0)]])
        free = module(m2, [[m2.unit]])
        assert hom_dim_oracle(col, col) == 1
        assert hom_dim_oracle(col, free) == 2
        assert hom_dim_oracle(free, col) == 2

    def test_distinct_product_factors_have_no_maps(self):
        p2 = direct_product([matrix_algebra(1), matrix_algebra(1)])
        m10 = module(p2, [[(1, 0)]])
        m01 = module(p2, [[(0, 1)]])
        assert hom_dim_oracle(m10, m01) == 0
        assert hom_dim_oracle(m01, m10) == 0
        assert hom_dim_oracle(m10, m10) == 1

    def test_zero_module_has_no_maps(self):
        m2 = matrix_algebra(2)
        zero = module(m2, [[m2.zero()]])
        free = module(m2, [[m2.unit]])
        assert hom_dim_oracle(zero, zero) == 0
        assert hom_dim_oracle(zero, free) == 0
        assert hom_dim_oracle(free, zero) == 0

    def test_block_sum_is_additive_in_each_argument(self):
        m2 = matrix_algebra(2)
        e00, z = (1, 0, 0, 0), m2.zero()
        col = module(m2, [[e00]])
        double = module(m2, [[e00, z], [z, e00]])
        free = module(m2, [[m2.unit]])
        assert hom_dim_oracle(double, free) == 2 * hom_dim_oracle(col, free)
        assert hom_dim_oracle(free, double) == 2 * hom_dim_oracle(free, col)

    def test_modules_over_different_algebras_rejected(self):
        m1 = module(matrix_algebra(1), [[(1,)]])
        m2 = module(dual_numbers(), [[(1, 0)]])
        with pytest.raises(ValueError):
            hom_dim_oracle(m1, m2)

    def test_projective_over_nonsemisimple_algebra(self):
        # End of the regular module over the dual numbers stays 2-dimensional
        # in either Hom direction against a rank-0 module
        d = dual_numbers()
        free = module(d, [[d.unit]])
        zero = module(d, [[d.zero()]])
        assert hom_dim_oracle(free, zero) == 0
        assert hom_dim_oracle(zero, free) == 0



PIPELINE = ("qalg.linalg", "qalg.structure", "qalg.modules")


def forbidden_names(source):
    """(line, dotted name) of each qalg name in the source that lies in a
    pipeline module or has an underscore-prefixed part: import targets, names
    imported from qalg modules, and attribute chains."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            named += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                named.append((node.lineno, ".".join([base.id, *reversed(parts)])))
    return [
        (line, name)
        for line, name in named
        if name.split(".")[0] == "qalg"
        and (
            any(name == m or name.startswith(m + ".") for m in PIPELINE)
            or any(part.startswith("_") for part in name.split("."))
        )
    ]


class TestOraclesStandApart:
    """The oracles do not lean on the code they check, and the package no
    longer carries them."""

    def test_oracles_use_no_pipeline_module_and_no_private_name(self):
        for source in (
            "from qalg.linalg import rref",
            "from qalg import structure",
            "import qalg.modules",
            "from qalg.algebra import _numerators",
            "import qalg\nqalg.algebra.FDAlgebra._fill",
        ):
            assert forbidden_names(source), source
        assert forbidden_names(Path(oracles.__file__).read_text()) == []

    def test_corpus_defines_no_oracle(self):
        def defined(path):
            return {n.name for n in ast.parse(Path(path).read_text()).body if isinstance(n, ast.FunctionDef)}

        corpus = defined(qalg.corpus.__file__)
        assert not corpus & defined(oracles.__file__)
        assert not [name for name in corpus if "oracle" in name]
