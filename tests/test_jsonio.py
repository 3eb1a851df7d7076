import copy
import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from conftest import closure_members, random_members, upward_closure, value
from hypothesis import given, settings
from test_schemes import random_layouts

from recone import realize, schemes
from recone.cone import REVector, check_membership, layer_cake_decompose
from recone.jsonio import (
    decomposition_to_json,
    membership_report_to_json,
    pair_from_json,
    pair_to_json,
    vector_from_json,
    vector_to_json,
    verification_report_to_json,
)
from recone.lattice import enumerate_upsets, subsets_in_order
from recone.realize import _dyadic_weight, dense_pair, realize_ray, synthesize, verify
from recone.schemes import dnf_scheme, scheme_state_pair
from recone.states import Factor, JointDistribution, ProductPair, StatePair


def test_vector_round_trip():
    v = REVector(3, (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.5))
    doc = vector_to_json(v)
    assert doc["n"] == 3
    assert doc["entries"][0] == {"parties": [1], "value": 1.0}
    assert vector_from_json(doc).values == v.values


def test_vector_round_trip_infinite():
    v = REVector(2, (math.inf, 0.0, math.inf))
    doc = vector_to_json(v)
    assert doc["entries"][0]["value"] == "inf"
    back = vector_from_json(doc)
    assert value(back, 0b01) == math.inf
    assert value(back, 0b10) == 0.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("entries"),
    lambda d: d["entries"].pop(),
    lambda d: d["entries"].append({"parties": [1], "value": 2.0}),
    lambda d: d["entries"][0].update(value="huge"),
    lambda d: d["entries"][0].update(parties=[2, 1]),
    lambda d: d["entries"][0].update(parties=[9]),
    lambda d: d.update(n="three"),
    lambda d: d["entries"][0].update(parties=[True]),  # a bool is not party 1
    # a party count past 8 would let party 2^64 through to a 2^64-bit shift
    lambda d: d.update(n=2 ** 64) or d["entries"][0].update(parties=[2 ** 64]),
])
def test_vector_from_json_rejects_malformed(mutate):
    doc = vector_to_json(REVector(2, (1.0, 0.0, 1.0)))
    mutate(doc)
    with pytest.raises(ValueError):
        vector_from_json(doc)


def test_pair_round_trip_exact_big_integers():
    huge = 10**40
    rho = JointDistribution(2, (2, 2), (((0, 0), 1), ((1, 1), huge - 1)), huge)
    sigma = JointDistribution(2, (2, 2), (((0, 0), 1), ((1, 1), 1)), 2)
    doc = pair_to_json(StatePair(rho, sigma))
    assert doc["rho"][0]["p"] == {"num": "1", "den": str(huge)}
    back = pair_from_json(doc)
    assert back.rho == rho
    assert back.sigma == sigma


def _pair_json_digest(make_pair) -> str:
    # all 23 up-sets with n <= 3, each at lambda 1 and 1.7; the digest pins
    # the pair JSON byte for byte, including the exact mixing weights
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        for u in enumerate_upsets(n):
            for lam in (1, 1.7):
                doc = pair_to_json(make_pair(u, lam))
                digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()


def xor_pair(u, lam):
    return scheme_state_pair(dnf_scheme(u), _dyadic_weight(lam))


def test_pair_json_golden_digest():
    # the XOR construction's bytes, as every ray was realized before planning
    assert _pair_json_digest(xor_pair) == \
        "3f2ccf7ef0628a61c1ce12468e9f21d9b0bdf38bb7fa26df5851dba804b64949"


def planned_pair(u, lam):
    """realize_ray's factor as the dense pair dense_pair builds from it."""
    return dense_pair(ProductPair(u.n, (realize_ray(u, lam),)))


def test_planned_pair_json_golden_digest():
    # realize_ray's planned bytes: XOR everywhere but 2-of-3, which is Shamir
    assert _pair_json_digest(planned_pair) == \
        "1befdcb93f4e5bf40e7ffc9e32e1b95fcffb59a5557b4b26a7aed6ff804df582"


def test_realize_ray_keeps_xor_pair_except_two_of_three():
    two_of_three = upward_closure({0b011, 0b101, 0b110}, 3)
    planned = [u for n in (1, 2, 3) for u in enumerate_upsets(n)
               if planned_pair(u, 1.7) != xor_pair(u, 1.7)]
    assert planned == [two_of_three]


def test_factored_pair_round_trip():
    result = synthesize(REVector(3, (0, 0, 0, 2, 2, 2, 3)))
    doc = pair_to_json(result.pair)
    # ABC at 1 bit by XOR, then 2-of-3 at 2 bits by Shamir over GF(5); each
    # form is packed in base q with the secret at digit 0: 7 is b + r1 + r2
    # over GF(2), 16 = 1 + 3 * 5 is b + 3 r1 over GF(5)
    assert doc == {"n": 3, "factors": [
        {"q": 2, "slots": [[2], [4], [7]], "randomness": 2, "weight": {"num": "1", "den": "2"}},
        {"q": 5, "slots": [[6], [11], [16]], "randomness": 1, "weight": {"num": "1", "den": "4"}}]}
    assert pair_from_json(json.loads(json.dumps(doc))) == result.pair
    # the same pair with each form as its coefficient list, as files held them before
    assert pair_from_json(LISTED_PAIR) == result.pair
    empty = pair_to_json(ProductPair(2, ()))
    assert empty == {"n": 2, "factors": []}
    assert pair_from_json(empty) == ProductPair(2, ())


#: test_factored_pair_round_trip's pair, its forms written as coefficient lists
LISTED_PAIR = {"n": 3, "factors": [
    {"q": 2, "slots": [[[0, 1, 0]], [[0, 0, 1]], [[1, 1, 1]]], "randomness": 2,
     "weight": {"num": "1", "den": "2"}},
    {"q": 5, "slots": [[[1, 1]], [[1, 2]], [[1, 3]]], "randomness": 1,
     "weight": {"num": "1", "den": "4"}}]}


@settings(max_examples=150, deadline=None)
@given(random_layouts())
def test_any_forms_round_trip_packed_or_listed(layout):
    # over GF(2) and GF(q): the file holds the packed ints, and the same
    # forms as coefficient lists read to an equal pair
    scheme, weight = layout
    pair = ProductPair(scheme.n, (Factor(scheme, weight),))
    doc = pair_to_json(pair)
    assert doc["factors"][0]["slots"] == [list(forms) for forms in scheme.forms]
    assert pair_from_json(json.loads(json.dumps(doc))) == pair
    doc["factors"][0]["slots"] = scheme.coefficient_lists()
    assert pair_from_json(json.loads(json.dumps(doc))) == pair


def test_zero_forms_claiming_a_large_randomness_build_no_rows_of_that_width():
    # packed forms let 9 KB of file claim R = 3 000 over GF(3): the rank check
    # refuses it from each form's own digits, not from 3 000 rows of 3 001
    # coefficients (72 MB)
    doc = {"n": 1, "factors": [{"q": 3, "slots": [[0] * 3000], "randomness": 3000,
                                "weight": {"num": "1", "den": "2"}}]}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^factor 1: duplicate symbol tuple"):
            pair_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def bound_builds(doc) -> int:
    """Refuse doc through pair_from_json and count the calls to pow that
    the constructor makes itself, which only the range check makes, to
    build its bound q**(R + 1); is_prime's modular pows are not counted."""
    calls, init = [], schemes.Scheme.__init__.__code__
    profile = sys.getprofile()
    sys.setprofile(lambda frame, event, arg:
                   calls.append(arg) if event == "c_call" and frame.f_code is init else None)
    try:
        with pytest.raises(ValueError, match="^factor 1: packed form "):
            pair_from_json(doc)
    finally:
        sys.setprofile(profile)
    return sum(arg is pow for arg in calls)


def test_a_form_out_of_range_past_many_zero_forms_builds_the_bound_at_most_once():
    # 60 KB of zero forms claim R = 20 000 over GF(2**31 - 1): q**(R + 1) has
    # 620 000 bits, and building it once per form before the -1 took minutes
    q, r = 2147483647, 20000
    doc = {"n": 1, "factors": [{"q": q, "slots": [[0] * r + [-1]], "randomness": r,
                                "weight": {"num": "1", "den": "2"}}]}
    assert bound_builds(doc) == 0  # every form is shorter than the bound: none is built
    # forms as long as the bound need it, once
    r = 100
    doc["factors"][0].update(slots=[[0] * r + [q ** (r + 1) - 1, q ** (r + 1), -1]], randomness=r)
    assert bound_builds(doc) == 1


def generic_n8_member():
    """The additive n = 8 member v(S) = sum of w_i over S, w_i ~ U(0.1, 1):
    255 distinct entries, so 255 rays."""
    rng = random.Random(8)
    w = [rng.uniform(0.1, 1) for _ in range(8)]
    return REVector(8, tuple(sum(w[i] for i in range(8) if m >> i & 1)
                             for m in subsets_in_order(8)))


def test_n8_pair_files_stay_small():
    # packed forms take 245 167 and 23 649 bytes; as coefficient lists the
    # same pairs took 3 494 302 and 145 698
    generic = len(json.dumps(pair_to_json(synthesize(generic_n8_member()).pair)))
    assert generic < 300_000
    seeded = sum(len(json.dumps(pair_to_json(synthesize(v).pair)))
                 for v in closure_members(8, 8, 20))
    assert seeded < 30_000


#: the 2-of-2 XOR factor at 1 bit: A holds r1, B holds b + r1
SCHEME_FACTOR = {"q": 2, "slots": [[[0, 1]], [[1, 1]]], "randomness": 1,
                 "weight": {"num": "1", "den": "2"}}


ROUND_TRIP_MEMBERS = [
    *random_members(3, 3, 10),
    REVector(5, tuple(1.5 if m.bit_count() >= 2 else 0.0 for m in subsets_in_order(5))),
    *closure_members(8, 8, 2),
]


@pytest.mark.parametrize("v", ROUND_TRIP_MEMBERS, ids=lambda v: f"n{v.n}")
def test_reading_back_a_round_trip_makes_no_elimination(v, monkeypatch):
    calls = []
    for kernel in ("_extend_gf2", "_extend_gfq"):
        monkeypatch.setattr(schemes, kernel, lambda *args, extend=getattr(schemes, kernel):
                            calls.append(args) or extend(*args))
    result = synthesize(v)
    doc = json.loads(json.dumps(pair_to_json(result.pair)))
    built = len(calls)
    pair = pair_from_json(doc)  # each factor's layout was just walked: the cache lends its table
    assert len(calls) == built and verify(v, pair).passed
    tables = [f.scheme.authorized() for f in pair.factors]
    del result, pair
    kept = pair_from_json(doc)  # the cache keeps the tables, not the schemes: still no walk
    assert len(calls) == built and [f.scheme.authorized() for f in kept.factors] == tables
    realize._plan.cache_clear()
    schemes._walk.cache_clear()
    again = pair_from_json(doc)  # both caches cold: the read walks, to the same tables
    assert len(calls) > built and [f.scheme.authorized() for f in again.factors] == tables


def factored(doc, edit):
    """Replace a dense pair document, in place, by a valid two-factor one
    of the same n = 2, then apply edit to it."""
    doc.clear()
    doc.update(n=2, factors=[copy.deepcopy(SCHEME_FACTOR), copy.deepcopy(SCHEME_FACTOR)])
    edit(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("sigma"),
    lambda d: d.update(alphabet_sizes=[2]),
    lambda d: d["rho"][0].update(symbols=[0, 5]),
    lambda d: d["rho"][0].update(p={"num": "1", "den": "0"}),
    lambda d: d["rho"][0].update(p={"num": "x", "den": "2"}),
    lambda d: d["rho"].pop(),  # probabilities no longer sum to 1
    lambda d: d["rho"][0].update(symbols=[True, 0]),
    lambda d: d["rho"][0].update(symbols=[0.0, 0]),
    lambda d: d["rho"][0].update(p={"num": "0", "den": "2"}),
    lambda d: d.update(alphabet_sizes=[True, True],  # bools are not sizes
                       rho=[{"symbols": [0, 0], "p": {"num": "1", "den": "1"}}],
                       sigma=[{"symbols": [0, 0], "p": {"num": "1", "den": "1"}}]),
    lambda d: factored(d, lambda f: f.update(n=3)),  # factors have n = 2
    lambda d: factored(d, lambda f: f.update(factors=f["factors"][0])),
    lambda d: factored(d, lambda f: f.update(rho=[])),
    lambda d: factored(d, lambda f: f["factors"][1]["slots"][0][0].append(0)),
    # JSON numbers and bools are refused, not truncated: int() reads 1.9
    # and true as 1, so rho would pass as a valid table
    lambda d: d["rho"][0].update(p={"num": 1.9, "den": "2"}),
    lambda d: d.update(rho=[{"symbols": [0, 0], "p": {"num": True, "den": True}}]),
    # int() also reads spaces, digit-group underscores and non-ASCII digits,
    # so this one-atom rho would pass as 10/10
    lambda d: d.update(rho=[{"symbols": [0, 0], "p": {"num": " 1_0 ", "den": "\u0661\u0660"}}]),
    lambda d: d.update(rho=[{"symbols": [0, 0], "p": {"num": "1", "den": " 1"}}]),
    lambda d: d.update(rho=[{"symbols": [0, 0], "p": {"num": "+1", "den": "1"}}]),
])
def test_pair_from_json_rejects_malformed(mutate):
    rho = JointDistribution(2, (2, 2), (((0, 0), 1), ((1, 1), 1)), 2)
    doc = pair_to_json(StatePair(rho, rho))
    mutate(doc)
    with pytest.raises(ValueError):
        pair_from_json(doc)


@pytest.mark.parametrize("edit,message", [
    (lambda atom: atom.update(weight=1), "each atom needs exactly 'symbols' and 'p'"),
    (lambda atom: atom.pop("p"), "each atom needs exactly 'symbols' and 'p'"),
    (lambda atom: atom["p"].pop("den"), "a probability needs exactly 'num' and 'den'"),
    (lambda atom: atom.update(p="1/2"), "a probability needs exactly 'num' and 'den'"),
])
def test_pair_file_atoms_and_probabilities_need_their_exact_keys(edit, message):
    rho = JointDistribution(2, (2, 2), (((0, 0), 1), ((1, 1), 1)), 2)
    doc = pair_to_json(StatePair(rho, rho))
    edit(doc["sigma"][1])
    with pytest.raises(ValueError, match=re.escape(message)):
        pair_from_json(doc)


DENSE_DOC = pair_to_json(xor_pair(upward_closure({0b11}, 2), 1))

# each edit makes factor 2 of a valid two-factor document malformed
MALFORMED_FACTORS = {
    "q-not-prime": lambda f: f.update(q=4),
    "q-a-float": lambda f: f.update(q=2.0),
    "form-too-long": lambda f: f["slots"][0][0].append(0),
    "form-too-short": lambda f: f["slots"][1][0].pop(),
    "not-injective": lambda f: f.update(slots=[[[0, 0]], [[1, 0]]]),
    "three-slot-lists": lambda f: f["slots"].append([]),
    "one-slot-list": lambda f: f["slots"].pop(),
    "slots-not-a-list": lambda f: f.update(slots={"A": [[0, 1]], "B": [[1, 1]]}),
    # a form packed into one int is read; these are not, with q = 2 and R = 1
    "form-a-bool": lambda f: f["slots"][0].__setitem__(0, True),
    "form-a-float": lambda f: f["slots"][0].__setitem__(0, 1.0),
    "form-a-string": lambda f: f["slots"][0].__setitem__(0, "3"),
    "form-a-dict": lambda f: f["slots"][0].__setitem__(0, {"0": 1}),
    "packed-form-negative": lambda f: f["slots"][0].__setitem__(0, -1),
    "packed-form-at-q-to-the-r-plus-1": lambda f: f["slots"][0].__setitem__(0, 4),
    "bool-coefficient": lambda f: f["slots"][0][0].__setitem__(1, True),
    "float-coefficient": lambda f: f["slots"][0][0].__setitem__(1, 1.0),
    "negative-coefficient": lambda f: f["slots"][0][0].__setitem__(1, -1),
    "coefficient-at-q": lambda f: f["slots"][0][0].__setitem__(1, 2),
    "randomness-a-bool": lambda f: f.update(randomness=True),
    "num-a-number": lambda f: f.update(weight={"num": 1, "den": "2"}),
    "den-not-ascii": lambda f: f.update(weight={"num": "1", "den": "\u0662"}),
    "num-signed": lambda f: f.update(weight={"num": "+1", "den": "2"}),
    "p-zero": lambda f: f.update(weight={"num": "0", "den": "2"}),
    "p-one": lambda f: f.update(weight={"num": "2", "den": "2"}),
    "p-above-one": lambda f: f.update(weight={"num": "3", "den": "2"}),
    "den-zero": lambda f: f.update(weight={"num": "1", "den": "0"}),
    "extra-key": lambda f: f.update(n=2),
    "missing-key": lambda f: f.pop("randomness"),
}


def malformed_factor_doc(edit):
    doc = {"n": 2, "factors": [copy.deepcopy(SCHEME_FACTOR), copy.deepcopy(SCHEME_FACTOR)]}
    edit(doc["factors"][1])
    return doc


@pytest.mark.parametrize("edit", MALFORMED_FACTORS.values(), ids=MALFORMED_FACTORS)
def test_malformed_scheme_factor_names_its_index(edit):
    assert pair_from_json(malformed_factor_doc(lambda f: None)).factors[1].weight == \
        Fraction(1, 2)
    with pytest.raises(ValueError, match="^factor 2: "):
        pair_from_json(malformed_factor_doc(edit))


def test_dense_pair_inside_factors_is_refused():
    doc = {"n": 2, "factors": [copy.deepcopy(SCHEME_FACTOR), DENSE_DOC]}
    with pytest.raises(ValueError, match="^factor 2: a dense pair object is not a factor") as err:
        pair_from_json(doc)
    assert "single-pair form" in str(err.value)
    with pytest.raises(ValueError, match="^factor 1: a factor must be an object"):
        pair_from_json({"n": 2, "factors": [[SCHEME_FACTOR]]})
    assert pair_from_json(DENSE_DOC) == xor_pair(upward_closure({0b11}, 2), 1)


def test_membership_report_serialization():
    report = check_membership(REVector(2, (1.0, 0.0, 0.5)))
    doc = membership_report_to_json(report)
    assert doc["member"] is False
    assert doc["violations"] == [
        {"superset": [1, 2], "subset": [1], "v_superset": 0.5, "v_subset": 1.0}]


def test_decomposition_serialization():
    d = layer_cake_decompose(REVector(2, (0.5, 0, 2.0)))
    doc = decomposition_to_json(d)
    assert doc["terms"][0] == {"coefficient": 1.5, "minimal_sets": [[1, 2]],
                               "members": [[1, 2]]}
    assert doc["terms"][1]["minimal_sets"] == [[1]]


def test_verification_report_serialization():
    target = REVector(2, (0, 0, 1))
    result = synthesize(target)
    doc = verification_report_to_json(verify(target, result.pair))
    assert doc["passed"] is True
    assert doc["failing_subsets"] == []
    assert doc["deviations"][2]["parties"] == [1, 2]
