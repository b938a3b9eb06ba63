"""The package's frozen records behave as ``@dataclass(frozen=True)`` would.

Each record class is checked against a real frozen dataclass with the same
fields and defaults, built here: the package itself does not import
``dataclasses``."""

import ast
import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import qalg
from qalg._record import Frozen
from qalg.algebra import FDAlgebra, QuotientPresentation, Subspace
from qalg.corpus import FixtureSpec, GoldenSummary
from qalg.edbounds import CSADescriptor, EdBoundReport, Partition, PartitionCheck
from qalg.linalg import Mat
from qalg.modules import IdempotentMatrix, ProjectiveModuleDescriptor
from qalg.poly import Poly
from qalg.polyfactor import Factorization
from qalg.structure import (
    RadicalReport,
    SimpleFactorData,
    WedderburnReport,
    jacobson_radical,
    wedderburn_decomposition,
)

# The immutable value classes that share the records' guard, one instance each.
VALUES = {
    "Mat": lambda: Mat([[1, 2]]),
    "Subspace": lambda: Subspace(2, [[1, 0]]),
    "FDAlgebra": lambda: FDAlgebra([[[1]]], [1]),
    "Poly": lambda: Poly([1, 2]),
    "IdempotentMatrix": lambda: IdempotentMatrix(FDAlgebra([[[1]]], [1]), [[[1]]]),
}

# The tuple each value class hashed before Frozen held the rule, read off its
# fields: _key() must return it, so that hash values do not change.
KEYS = {
    "Mat": lambda v: (v.rows, v.cols, v.data),
    "Subspace": lambda v: (v.ambient_dim, v.basis),
    "FDAlgebra": lambda v: (v.dim, v.unit, v._den, v._terms),
    "Poly": lambda v: v.coeffs,
    "IdempotentMatrix": lambda v: (v.algebra, v.entries),
}

# Each record's fields in order, (name, default) where it has one, and two
# argument tuples that differ in their last field. Records without a
# __post_init__ get values of mixed types; it does not check them.
RECORDS = [
    (QuotientPresentation, ("algebra", "ideal", "quotient", "projection", "section"), (1, "i", None, (2,), Fraction(1, 3)), (1, "i", None, (2,), 0)),
    (RadicalReport, ("radical", "nilpotency_index", "quotient"), ("r", 2, "q"), ("r", 2, "p")),
    (SimpleFactorData, ("central_idempotent", "factor_dim", "center_dim", "degree_over_center", "matrix_size"), ((Fraction(1), Fraction(0)), 4, 1, 2, 2), ((Fraction(1), Fraction(0)), 4, 1, 2, None)),
    (WedderburnReport, ("semisimple_quotient", "factors"), ("s", ()), ("s", ("f",))),
    (EdBoundReport, ("value", "kind", "formula", ("assumptions", ())), (Fraction(3, 2), "upper", "f'x\"", ("a",)), (Fraction(3, 2), "upper", "f'x\"", ())),
    (CSADescriptor, ("degree", ("index", None)), (6, 3), (6, 2)),
    (Partition, ("parts",), ((3, 1, 1),), ((3, 2),)),
    (PartitionCheck, ("rank", "max_square_sum", "predicted", "witness", "attained"), (3, 5, 5, Partition((2, 1)), True), (3, 5, 5, Partition((2, 1)), False)),
    (ProjectiveModuleDescriptor, ("algebra", "presentation", "rank_vector", "uniform_rank"), ("a", "p", (Fraction(1, 2),), Fraction(1, 2)), ("a", "p", (Fraction(1, 2),), None)),
    (Factorization, ("content", "factors"), (Fraction(-2), ()), (Fraction(-2), ((1, 2),))),
    (GoldenSummary, ("radical_dim", "nilpotency_index", "factor_shapes", "oracle"), (0, 1, ((1, 1, 1, 1),), "base"), (0, 1, ((1, 1, 1, 1),), "other")),
    (FixtureSpec, ("name", "build", "expected"), ("x", len, None), ("x", len, 0)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def oracle(cls, fields):
    """A frozen dataclass of the same name with these fields and defaults."""
    spec = [(f, object) if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1])) for f in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def field_names(fields):
    return [f if isinstance(f, str) else f[0] for f in fields]


def raised(make):
    """The exception make() raises and its message, without the function name
    in front and the keyword suggestion behind, which depend on the Python
    version."""
    with pytest.raises(Exception) as info:
        make()
    message = str(info.value).split("() ", 1)[-1]
    return type(info.value), message.split(". Did you mean")[0]


def test_every_record_is_covered():
    # The record decorator sets __match_args__, which no other class in the
    # package defines.
    found = {
        obj
        for module in (qalg.algebra, qalg.corpus, qalg.edbounds, qalg.modules, qalg.polyfactor, qalg.structure)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "__match_args__" in vars(obj)
    }
    assert found == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, fields, args, other", RECORDS, ids=IDS)
class TestAgainstDataclass:
    def test_fields_and_defaults(self, cls, fields, args, other):
        assert cls.__match_args__ == tuple(field_names(fields))
        for f in fields:
            if not isinstance(f, str):
                assert getattr(cls, f[0]) == f[1]

    def test_repr(self, cls, fields, args, other):
        ref = oracle(cls, fields)
        for values in (args, other):
            assert repr(cls(*values)) == repr(ref(*values))
        names = field_names(fields)
        assert repr(cls(**dict(zip(names, args)))) == repr(ref(*args))

    def test_defaults_fill_in(self, cls, fields, args, other):
        ref = oracle(cls, fields)
        required = sum(isinstance(f, str) for f in fields)
        assert repr(cls(*args[:required])) == repr(ref(*args[:required]))

    def test_equality_and_hash(self, cls, fields, args, other):
        ref = oracle(cls, fields)
        for a in (args, other):
            for b in (args, other):
                assert (cls(*a) == cls(*b)) == (ref(*a) == ref(*b))
                assert (cls(*a) != cls(*b)) == (ref(*a) != ref(*b))
            assert hash(cls(*a)) == hash(ref(*a))
        record = cls(*args)
        assert record == record
        # Equal only to the same class: not to the dataclass with the same
        # fields, nor to the tuple of its values.
        assert record != ref(*args) and ref(*args) != record
        assert record != tuple(getattr(record, n) for n in field_names(fields))

    def test_frozen(self, cls, fields, args, other):
        record = cls(*args)
        for name in field_names(fields) + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == repr(cls(*args))

    def test_signature(self, cls, fields, args, other):
        def parameters(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

        assert parameters(cls) == parameters(oracle(cls, fields))

    def test_bad_arguments(self, cls, fields, args, other):
        ref = oracle(cls, fields)
        names = field_names(fields)
        calls = [
            lambda c: c(),
            lambda c: c(*args[:-1]) if isinstance(fields[-1], str) else c(),
            lambda c: c(*args, 0),
            lambda c: c(*args, no_such_field=0),
            lambda c: c(**dict(zip(names[1:], args[1:]))),
            lambda c: c(*args, **{names[0]: args[0]}),
            lambda c: c(*args, **{names[-1]: args[-1]}),
        ]
        for call in calls:
            expected = raised(lambda: call(ref))
            assert expected[0] is TypeError
            assert raised(lambda: call(cls)) == expected


class TestPostInit:
    def test_unknown_bound_kind(self):
        with pytest.raises(ValueError, match="unknown bound kind"):
            EdBoundReport(Fraction(1), "bogus", "f")

    def test_value_matches_minus_infinity(self):
        with pytest.raises(ValueError, match="exactly for minus_infinity"):
            EdBoundReport(None, "upper", "f")

    def test_index_must_divide_degree(self):
        with pytest.raises(ValueError, match="index must divide the degree"):
            CSADescriptor(4, 3)
        with pytest.raises(ValueError, match="index must divide the degree"):
            CSADescriptor(degree=4, index=3)

    def test_partition_parts_decrease(self):
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition((1, 2))

    def test_partition_stores_ints(self):
        p = Partition(("2", 1))
        assert p.parts == (2, 1) and all(type(x) is int for x in p.parts)
        assert p == Partition((2, 1)) and hash(p) == hash(Partition((2, 1)))
        assert repr(p) == "Partition(parts=(2, 1))"


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_value_classes_refuse_assignment_and_deletion(make):
    value = make()
    assert isinstance(value, Frozen) and not hasattr(value, "__dict__")
    slots = Frozen.__slots__ + type(value).__slots__
    for name in [s for s in slots if s != "__weakref__"] + ["not_a_field"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == make() and hash(value) == hash(make())


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_compare_and_hash_by_key(name):
    value, same = VALUES[name](), VALUES[name]()
    assert value is not same and value._key() == same._key() == KEYS[name](value)
    assert value == same and not value != same
    for other in VALUES:
        if other != name:
            assert value != VALUES[other]() and VALUES[other]() != value
    assert value != value._key() and value._key() != value
    assert hash(value) == hash(value._key()) == hash(value) == hash(same)


# Values that copy and pickle must rebuild: each value class, a matrix with no
# rows, and reports that hold values.
COPIED = {
    **VALUES,
    "Mat/no rows": lambda: Mat([], 3),
    "WedderburnReport": lambda: wedderburn_decomposition(qalg.matrix_algebra(2)),
    "RadicalReport": lambda: jacobson_radical(qalg.upper_triangular(3)),
    "EdBoundReport": lambda: qalg.bundle_moduli_ed(2, 2, 1, assume_ckm=True),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", COPIED)
def test_copy_and_pickle_rebuild_an_equal_value(name, how):
    value = COPIED[name]()
    hash(value)  # a value class keeps it in _hash; the copy computes its own
    again = COPIES[how](value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    if isinstance(again, Frozen):
        with pytest.raises(AttributeError, match="^cannot assign"):
            setattr(again, type(again).__slots__[0], 0)


@pytest.mark.parametrize("how", COPIES)
def test_copied_algebra_gets_its_own_memo(how):
    a = qalg.matrix_algebra(2)
    assert wedderburn_decomposition(a).semisimple_quotient is a
    b = COPIES[how](a)
    assert b._memo is not a._memo and b._memo == {}
    assert wedderburn_decomposition(b).semisimple_quotient is b
    assert wedderburn_decomposition(a).semisimple_quotient is a


def frozen_rule_sites(source):
    """Line numbers at which source defines or assigns __eq__ or __hash__, or
    names object.__setattr__: the rules that only Frozen states."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in ("__eq__", "__hash__")
            or isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        ):
            hits.append(node.lineno)
    return hits


class TestFrozenOwnsTheRules:
    """Only qalg/_record.py defines equality and hashing or writes past the
    guard; the value classes give _key() and fill themselves with _set."""

    def test_the_check_catches_each_way_of_stating_a_rule(self):
        for snippet in (
            "class A:\n    def __eq__(self, other): pass",
            "class A:\n    def __hash__(self): pass",
            "class A:\n    __hash__ = None",
            "object.__setattr__(self, 'x', 1)",
            "setattr_ = object.__setattr__",
        ):
            assert frozen_rule_sites(snippet), snippet
        assert not frozen_rule_sites("a == b\nhash(a)\nself._set(x=1)\na.__eq__(b)")

    def test_no_other_module_states_them(self):
        package = Path(qalg.__file__).parent
        found = [
            f"{path.name}:{line}"
            for path in sorted(package.glob("*.py"))
            if path.name != "_record.py"
            for line in frozen_rule_sites(path.read_text())
        ]
        assert not found
        assert frozen_rule_sites((package / "_record.py").read_text())
