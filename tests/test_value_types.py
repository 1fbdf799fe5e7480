"""Value semantics of the package's immutable types.

Equal values compare and hash equal, no field can be assigned or deleted
after construction, and every construction-time check refuses bad data.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

import solvhodge as sh
from solvhodge.exact import ComplexExact, ExactScalar, SymbolTable, Value
from solvhodge.forms import Generator, TwistedForm, dw, dz


def table():
    return SymbolTable.base().with_symbol("t", 2.0)


def other_table():
    return SymbolTable.base().with_symbol("u", 3.0)


def scalar(**coeffs):
    return ExactScalar.make(coeffs)


def character(shift=0):
    return sh.CharacterExponent((ComplexExact.make(1 + shift, "1/2"),), (ComplexExact.make(0, -1),))


def lattice(scale=1):
    return sh.LatticeBasis(1, ((ComplexExact.make(scale),), (ComplexExact.make(0, scalar(t=1)),)))


def spec(t, name="demo"):
    return sh.SolvManifoldSpec(
        name=name, n=1, m=1, alphas=(character(),), lattice=lattice(),
        lattice_fiber=sh.LatticeBasis(1, ((ComplexExact.make(1),), (ComplexExact.make(0, 1),))), symbols=t,
    )


# Each builder makes a fresh instance; ``same`` builds an equal one from
# separately built parts, ``other`` an unequal one.
VALUES = {
    "SymbolTable": (table, lambda: SymbolTable.base().with_symbol("t", 2.0), other_table),
    "ExactScalar": (
        lambda: scalar(one="1/2", t=-3),
        lambda: ExactScalar((("one", Fraction(1, 2)), ("t", Fraction(-3)))),
        lambda: scalar(one="1/2", t=3),
    ),
    "ComplexExact": (
        lambda: ComplexExact.make(1, scalar(pi=2)),
        lambda: ComplexExact(scalar(one=1), scalar(pi=2)),
        lambda: ComplexExact.make(1, scalar(pi=-2)),
    ),
    "CharacterExponent": (character, character, lambda: character(shift=1)),
    "LatticeBasis": (lattice, lattice, lambda: lattice(2)),
    "SolvManifoldSpec": (
        lambda: spec(table()),
        lambda: spec(table()),
        lambda: spec(table(), name="renamed"),
    ),
    "Generator": (lambda: Generator("dw", 2), lambda: Generator("dw", 2), lambda: Generator("dwbar", 2)),
    "BasisElement": (
        lambda: sh.BasisElement((1,), (1, 2), (), (2,)),
        lambda: sh.BasisElement((1,), (1, 2), (), (2,)),
        lambda: sh.BasisElement((1,), (1, 2), (2,), ()),
    ),
    "TwistedForm": (
        lambda: TwistedForm.monomial(ComplexExact.make(2), character(), (dz(1), dw(1))),
        lambda: TwistedForm.monomial(ComplexExact.make(-2), character(), (dw(1), dz(1))),
        lambda: TwistedForm.monomial(ComplexExact.make(2), character(), (dz(1),)),
    ),
    "PairSweep": (
        lambda: sh.PairSweep((((), ()), ((1,), (1,))), True),
        lambda: sh.PairSweep(pairs=(((), ()), ((1,), (1,))), certified=True),
        lambda: sh.PairSweep((((), ()), ((1,), (1,))), False),
    ),
    "HodgeTable": (
        lambda: sh.HodgeTable(((1, 1), (1, 1))),
        lambda: sh.HodgeTable(h=((1, 1), (1, 1))),
        lambda: sh.HodgeTable(((1, 0), (0, 1))),
    ),
}

FIELDS = {
    "SymbolTable": ("entries",),
    "ExactScalar": ("coeffs",),
    "ComplexExact": ("re", "im"),
    "CharacterExponent": ("a", "b"),
    "LatticeBasis": ("n", "generators"),
    "SolvManifoldSpec": ("name", "n", "m", "alphas", "lattice", "lattice_fiber", "symbols"),
    "Generator": ("kind", "index"),
    "BasisElement": ("I", "J", "K", "L"),
    "TwistedForm": ("terms",),
    "PairSweep": ("pairs", "certified"),
    "HodgeTable": ("h",),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_equal_values_compare_and_hash_equal(kind):
    make, same, other = VALUES[kind]
    first, second, different = make(), same(), other()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != different and not first == different
    assert len({first, second, different}) == 2
    assert first != object()


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_fields_cannot_be_assigned_or_deleted(kind):
    value = VALUES[kind][0]()
    for field in FIELDS[kind]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_every_field_takes_part_in_equality(kind):
    value = VALUES[kind][0]()
    for field in FIELDS[kind]:
        twin = copy.copy(value)
        object.__setattr__(twin, field, object())
        assert twin != value and value != twin, field


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_pickle_and_copy_keep_the_value(kind):
    value = VALUES[kind][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value)


t = table()
one = ComplexExact.make(1)
alpha = character()
u = ComplexExact.make(scalar(u=1))  # names "u", which t does not declare
mixed = ComplexExact.make(scalar(one=1, t=1, u=1))


def naming_u(n, m, alphas=(alpha,), base=lattice(), fiber=None):
    """Builds a manifold over t one of whose numbers names u; its ValueError must name u."""
    def build():
        try:
            sh.SolvManifoldSpec("x", n, m, alphas, base, fiber, t)
        except ValueError as exc:
            assert str(exc) == "undeclared symbol 'u'", exc
            raise
    return build


REFUSED = {
    "SymbolTable duplicate name": (ValueError, lambda: SymbolTable((("one", 1.0), ("pi", math.pi), ("one", 1.0)))),
    "SymbolTable without one": (ValueError, lambda: SymbolTable((("pi", math.pi),))),
    "SymbolTable wrong one": (ValueError, lambda: SymbolTable((("one", 2.0), ("pi", math.pi)))),
    "SymbolTable without pi": (ValueError, lambda: SymbolTable((("one", 1.0),))),
    "SymbolTable empty name": (ValueError, lambda: SymbolTable((("one", 1.0), ("pi", math.pi), ("", 2.0)))),
    "SymbolTable non-string name": (ValueError, lambda: SymbolTable((("one", 1.0), ("pi", math.pi), (7, 2.0)))),
    "SymbolTable zero witness": (ValueError, lambda: SymbolTable((("one", 1.0), ("pi", math.pi), ("t", 0.0)))),
    "SymbolTable infinite witness": (ValueError, lambda: SymbolTable((("one", 1.0), ("pi", math.pi), ("t", math.inf)))),
    "ExactScalar zero coefficient": (ValueError, lambda: ExactScalar((("one", Fraction(0)),))),
    "ExactScalar int coefficient": (ValueError, lambda: ExactScalar((("one", 1),))),
    "ExactScalar unsorted": (ValueError, lambda: ExactScalar((("pi", Fraction(1)), ("one", Fraction(1))))),
    "ExactScalar repeated symbol": (ValueError, lambda: ExactScalar((("one", Fraction(1)), ("one", Fraction(2))))),
    "CharacterExponent lengths": (ValueError, lambda: sh.CharacterExponent((one,), ())),
    "LatticeBasis generator count": (ValueError, lambda: sh.LatticeBasis(1, ((one,),))),
    "LatticeBasis generator length": (ValueError, lambda: sh.LatticeBasis(1, ((one,), (one, one)))),
    "SolvManifoldSpec name with a line break": (
        ValueError,
        lambda: sh.SolvManifoldSpec("a\n\\end{tabular}", 1, 1, (alpha,), lattice(), None, t),
    ),
    "SolvManifoldSpec negative n": (
        ValueError,
        lambda: sh.SolvManifoldSpec("x", -1, 1, (alpha,), lattice(), None, t),
    ),
    "SolvManifoldSpec empty": (
        ValueError,
        lambda: sh.SolvManifoldSpec("x", 0, 0, (), sh.LatticeBasis(0, ()), None, t),
    ),
    "SolvManifoldSpec character count": (
        ValueError,
        lambda: sh.SolvManifoldSpec("x", 1, 2, (alpha,), lattice(), None, t),
    ),
    "SolvManifoldSpec character dimension": (
        ValueError,
        lambda: sh.SolvManifoldSpec("x", 1, 1, (sh.CharacterExponent.trivial(2),), lattice(), None, t),
    ),
    "SolvManifoldSpec lattice dimension": (
        ValueError,
        lambda: sh.SolvManifoldSpec("x", 1, 1, (alpha,), sh.torus(2, 1).lattice, None, t),
    ),
    "SolvManifoldSpec fiber dimension": (
        ValueError,
        lambda: sh.SolvManifoldSpec("x", 1, 1, (alpha,), lattice(), sh.torus(0, 2).lattice_fiber, t),
    ),
    # every number of a spec may name only the symbols its table declares
    "SolvManifoldSpec foreign character": (ValueError, naming_u(1, 1, (sh.CharacterExponent((u,), (one,)),))),
    "SolvManifoldSpec undeclared symbol in b": (ValueError, naming_u(1, 1, (sh.CharacterExponent((one,), (u,)),))),
    "SolvManifoldSpec undeclared symbol in an imaginary part": (
        ValueError,
        naming_u(1, 1, (sh.CharacterExponent((ComplexExact.make(1, scalar(u=1)),), (one,)),)),
    ),
    "SolvManifoldSpec undeclared symbol beside declared ones": (
        ValueError,
        naming_u(1, 2, (alpha, sh.CharacterExponent((mixed,), (one,)))),
    ),
    "SolvManifoldSpec foreign lattice": (ValueError, naming_u(1, 1, base=sh.LatticeBasis(1, ((one,), (u,))))),
    "SolvManifoldSpec foreign fiber lattice": (
        ValueError,
        naming_u(1, 1, fiber=sh.LatticeBasis(1, ((u,), (ComplexExact.make(0, 1),)))),
    ),
    "Generator kind": (ValueError, lambda: Generator("dx", 1)),
    "Generator index": (ValueError, lambda: Generator("dz", 0)),
    "BasisElement I order": (ValueError, lambda: sh.BasisElement((2, 1), (), (), ())),
    "BasisElement J repeat": (ValueError, lambda: sh.BasisElement((), (1, 1), (), ())),
    "BasisElement K order": (ValueError, lambda: sh.BasisElement((), (), (3, 2), ())),
    "BasisElement L repeat": (ValueError, lambda: sh.BasisElement((), (), (), (2, 2))),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_construction_checks_refuse(case):
    error, build = REFUSED[case]
    with pytest.raises(error):
        build()


# The shared constructor of three value types whose construction checks run
# once the fields are stored.
SHARED = {
    "LatticeBasis": (sh.LatticeBasis, {"n": 1, "generators": lattice().generators}),
    "BasisElement": (sh.BasisElement, {"I": (1,), "J": (1, 2), "K": (), "L": (2,)}),
    "CharacterExponent": (sh.CharacterExponent, {"a": alpha.a, "b": alpha.b}),
}


@pytest.mark.parametrize("kind", sorted(SHARED))
def test_shared_constructor_refuses_bad_arguments(kind):
    cls, fields = SHARED[kind]
    values = tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing"):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{first: values[0]})


@pytest.mark.parametrize("kind", sorted(SHARED))
def test_keyword_and_positional_construction_agree(kind):
    cls, fields = SHARED[kind]
    items = list(fields.items())
    built = (cls(*fields.values()), cls(**fields), cls(items[0][1], **dict(items[1:])))
    for value in built:
        assert [getattr(value, name) for name in fields] == list(fields.values())
    assert built[0] == built[1] == built[2] and hash(built[0]) == hash(built[1])


def test_shared_constructor_runs_the_checks_on_stored_fields():
    assert sh.BasisElement(I=(), J=(1,), K=(), L=()).p == 1
    with pytest.raises(ValueError, match="K must be strictly increasing"):
        sh.BasisElement(I=(), J=(), K=(2, 1), L=())
    with pytest.raises(ValueError, match="binomial bound"):
        sh.HodgeTable(h=((1, 2), (0, 1)))


def slotless(cls):
    """A subclass of ``cls`` that adds no field, importable by name so that pickle finds it."""
    sub = type(f"Slotless{cls.__name__}", (cls,), {"__slots__": (), "__module__": __name__})
    globals()[sub.__name__] = sub
    return sub


# the types built by Value's constructor rather than one of their own
SHARED_KINDS = sorted(kind for kind in VALUES if type(VALUES[kind][0]()).__init__ is Value.__init__)


@pytest.mark.parametrize("kind", SHARED_KINDS)
def test_subclass_without_slots_keeps_the_fields(kind):
    make, _, other = VALUES[kind]
    value = make()
    sub = slotless(type(value))
    fields = [getattr(value, name) for name in FIELDS[kind]]
    first, second = sub(*fields), sub(**dict(zip(FIELDS[kind], fields)))
    different = sub(*(getattr(other(), name) for name in FIELDS[kind]))
    assert first == second and hash(first) == hash(second)
    assert first != different and first != value
    assert pickle.loads(pickle.dumps(first)) == first
