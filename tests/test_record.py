"""The contract every frozen record of the package keeps, and the two
namedtuples beside them: fields that refuse assignment, equality and
hashing by fields, pickling and copying, the repr, and the layout."""

import copy
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from conftest import random_distribution, random_pair, upward_closure

from recone.cone import REVector, check_membership, layer_cake_decompose
from recone.lattice import permutation_classes
from recone.realize import RayPlan, plan_ray, realize_ray, synthesize, verify
from recone.schemes import dnf_scheme
from recone.states import ProductPair

A, BC = 0b001, 0b110
RAY6 = ({A, BC}, 3)  # upward_closure arguments: the up-set generated by A and BC
MEMBER = (3, (1, 0, 0, 1, 1, 1, 2.5))
NOT_A_MEMBER = (2, (1, 0, 0))

# per type, a builder that makes a new object on each call, all with equal fields
BUILDERS = {
    "UpSet": lambda: upward_closure(*RAY6),
    "OrbitClass": lambda: permutation_classes([upward_closure(*RAY6)], 3)[0],
    "REVector": lambda: REVector(*MEMBER),
    "MembershipReport": lambda: check_membership(REVector(*NOT_A_MEMBER)),
    "Violation": lambda: check_membership(REVector(*NOT_A_MEMBER)).violations[0],
    "RayDecomposition": lambda: layer_cake_decompose(REVector(*MEMBER)),
    "JointDistribution": lambda: random_distribution(random.Random(1), 2, (2, 3)),
    "StatePair": lambda: random_pair(random.Random(2), 2, (2, 2)),
    "Factor": lambda: realize_ray(upward_closure(*RAY6), Fraction(3, 2)),
    "ProductPair": lambda: ProductPair(3, (realize_ray(upward_closure(*RAY6), 1),)),
    "Scheme": lambda: dnf_scheme(upward_closure(*RAY6)),
    "VerificationReport": lambda: verify(REVector(*MEMBER), synthesize(REVector(*MEMBER)).pair),
    "RealizationResult": lambda: synthesize(REVector(*MEMBER)),
    "RayPlan": lambda: RayPlan(*plan_ray(upward_closure(*RAY6))),  # the kept plan's fields
}
NAMEDTUPLES = {"Violation", "RayPlan"}
DICT_BACKED = {"REVector", "Scheme"}


def test_every_record_type_is_covered():
    assert len(BUILDERS) == 14
    assert all(type(build()).__name__ == name for name, build in BUILDERS.items())


@pytest.fixture(params=sorted(BUILDERS))
def built(request):
    name = request.param
    first = BUILDERS[name]()
    return name, first, BUILDERS[name](), type(first)._fields


def test_fields_refuse_assignment_and_deletion(built):
    name, obj, _, fields = built
    for field in fields:
        # a namedtuple's refusal names no field
        named = None if name in NAMEDTUPLES else f"'{field}'"
        with pytest.raises(AttributeError, match=named):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError, match=named):
            delattr(obj, field)


def test_equal_fields_give_equal_objects_and_hashes(built):
    name, obj, twin, fields = built
    assert twin is not obj
    assert [getattr(twin, f) for f in fields] == [getattr(obj, f) for f in fields]
    assert twin == obj and hash(twin) == hash(obj)
    values = tuple(getattr(obj, f) for f in fields)
    if name in NAMEDTUPLES:
        assert obj == values  # tuples still
    else:
        assert obj != values and obj.__eq__(values) is NotImplemented
    for other in BUILDERS:
        if other != name:
            assert obj != BUILDERS[other]()


def test_pickle_and_copy_give_back_an_equal_object(built):
    name, obj, _, _ = built
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(obj), copy.deepcopy(obj)]:
        assert type(other) is type(obj) and other == obj and hash(other) == hash(obj)
        if name in DICT_BACKED:  # with what the record keeps: a scheme's table
            assert vars(other) == vars(obj)


def test_repr_names_every_field(built):
    name, obj, _, fields = built
    assert repr(obj) == f"{name}({', '.join(f'{f}={getattr(obj, f)!r}' for f in fields)})"


def test_slotted_records_hold_no_dict_and_take_no_weakrefs(built):
    name, obj, _, _ = built
    if name in DICT_BACKED:
        assert isinstance(vars(obj), dict)
        assert weakref.ref(obj)() is obj
    else:
        assert not hasattr(obj, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(obj)
