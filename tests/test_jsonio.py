import copy
import hashlib
import json
import math

import pytest

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
from recone.lattice import enumerate_upsets, upward_closure
from recone.realize import _dyadic_weight, realize_ray, synthesize, verify
from recone.schemes import dnf_scheme, scheme_state_pair
from recone.states import JointDistribution, ProductPair, StatePair


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
    assert back.value(0b01) == math.inf
    assert back.value(0b10) == 0.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("entries"),
    lambda d: d["entries"].pop(),
    lambda d: d["entries"].append({"parties": [1], "value": 2.0}),
    lambda d: d["entries"][0].update(value="huge"),
    lambda d: d["entries"][0].update(parties=[2, 1]),
    lambda d: d["entries"][0].update(parties=[9]),
    lambda d: d.update(n="three"),
    lambda d: d["entries"][0].update(parties=[True]),  # a bool is not party 1
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


def test_planned_pair_json_golden_digest():
    # realize_ray's planned bytes: XOR everywhere but 2-of-3, which is Shamir
    assert _pair_json_digest(realize_ray) == \
        "1befdcb93f4e5bf40e7ffc9e32e1b95fcffb59a5557b4b26a7aed6ff804df582"


def test_realize_ray_keeps_xor_pair_except_two_of_three():
    two_of_three = upward_closure({0b011, 0b101, 0b110}, 3)
    planned = [u for n in (1, 2, 3) for u in enumerate_upsets(n)
               if realize_ray(u, 1.7) != xor_pair(u, 1.7)]
    assert planned == [two_of_three]


def test_factored_pair_round_trip():
    result = synthesize(REVector(3, (0, 0, 0, 2, 2, 2, 3)))
    doc = pair_to_json(result.pair)
    assert sorted(doc) == ["factors", "n"] and doc["n"] == 3
    assert doc["factors"] == [pair_to_json(f) for f in result.pair.factors]
    assert pair_from_json(json.loads(json.dumps(doc))) == result.pair
    empty = pair_to_json(ProductPair(2, ()))
    assert empty == {"n": 2, "factors": []}
    assert pair_from_json(empty) == ProductPair(2, ())


def factored(doc, edit):
    """Turn a dense pair document, in place, into a valid two-factor one,
    then apply edit to it."""
    dense = dict(doc)
    doc.clear()
    doc.update(n=dense["n"], factors=[dense, copy.deepcopy(dense)])
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
    lambda d: factored(d, lambda f: f.update(rho=f["factors"][0]["rho"])),
    lambda d: factored(d, lambda f: f["factors"][1]["rho"][0].update(symbols=[0, 5])),
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
