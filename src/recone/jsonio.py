"""JSON serialization for vectors, state pairs, and reports.

Vector files look like

    {"n": 3, "entries": [{"parties": [1], "value": 1.0}, ...]}

with parties as sorted 1-based arrays and every nonempty subset present
exactly once; "value" may be the string "inf" (membership checks only).
State-pair files carry exact rationals as decimal strings.  A dense
pair is one object:

    {"n": 2, "alphabet_sizes": [2, 2],
     "rho":   [{"symbols": [0, 0], "p": {"num": "1", "den": "2"}}, ...],
     "sigma": [...]}

and a factored pair, the tensor product of its factors (none for the
zero vector), lists each factor's linear scheme, the forms of each
party's slots over GF(q) (see recone.schemes.Scheme), and its exact weight:

    {"n": 2, "factors": [{"q": 2, "slots": [[2], [3]], "randomness": 1,
                          "weight": {"num": "1", "den": "2"}}, ...]}

A form is the packed int Scheme.forms keeps, its coefficient list
[c0, ..., cR] in base q, c0 (the secret's) as digit 0: A holds r1 and B
b + r1 here.  A coefficient list, [[[0, 1]], [[1, 1]]] here, is read too.
The Scheme constructor and 0 < p < 1 check a factor without a table; the
constructor takes the authorized groups of a layout walked recently (as
when a pair just synthesized is read back), else finds them.  A dense
pair object inside "factors" is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cone import MembershipReport, RayDecomposition, REVector, Violation
from .lattice import MAX_PARTIES, mask_label, mask_of, parties, subsets_in_order
from .realize import RealizationResult, VerificationReport
from .schemes import Scheme
from .states import Factor, JointDistribution, ProductPair, StatePair

_FACTOR_KEYS = {"q", "slots", "randomness", "weight"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _party_count(doc) -> int:
    _require(isinstance(doc, dict), "top-level JSON value must be an object")
    n = doc.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= MAX_PARTIES,
             f"'n' must be an integer in 1..{MAX_PARTIES}, got {n!r}")
    return n


def vector_to_json(v: REVector) -> dict:
    entries = []
    for mask, value in v.entries():
        out = "inf" if value == math.inf else float(value)
        entries.append({"parties": list(parties(mask)), "value": out})
    return {"n": v.n, "entries": entries}


def vector_from_json(doc) -> REVector:
    n = _party_count(doc)
    entries = doc.get("entries")
    _require(isinstance(entries, list), "'entries' must be a list")
    mapping = {}
    for item in entries:
        _require(isinstance(item, dict) and set(item) == {"parties", "value"},
                 f"each entry needs exactly 'parties' and 'value', got {item!r}")
        plist = item["parties"]
        _require(isinstance(plist, list) and plist and set(map(type, plist)) <= {int},
                 f"'parties' must be a nonempty list of integers, got {plist!r}")
        _require(plist == sorted(set(plist)), f"'parties' must be sorted and duplicate-free: {plist!r}")
        mask = mask_of(plist, n)
        _require(mask not in mapping, f"duplicate entry for parties {plist}")
        raw = item["value"]
        if raw == "inf":
            value = math.inf
        else:
            try:
                finite = not isinstance(raw, bool) and math.isfinite(raw)
            except (TypeError, OverflowError):
                finite = False
            _require(finite, f"'value' for parties {plist} must be a finite number or 'inf'")
            value = raw
        mapping[mask] = value
    _require(set(mapping) == set(subsets_in_order(n)),
             f"need one entry per nonempty subset of [{n}]")
    return REVector.from_mapping(n, mapping)


def _probability_from_json(doc) -> tuple[int, int]:
    # per atom: messages are formatted only on failure
    if not (isinstance(doc, dict) and doc.keys() == {"num", "den"}):
        raise ValueError(f"a probability needs exactly 'num' and 'den', got {doc!r}")
    num, den = doc["num"], doc["den"]
    if not (type(num) is str and type(den) is str and num.isascii() and den.isascii()
            and num.isdigit() and den.isdigit()):  # not JSON numbers, signs, spaces or "_"
        raise ValueError(f"'num' and 'den' must be decimal integer strings, got {doc!r}")
    num, den = int(num), int(den)
    if den <= 0:
        raise ValueError("denominator must be positive")
    return num, den


def _distribution_to_json(d: JointDistribution) -> list:
    reduced = {}  # weight -> its probability in lowest terms; tables repeat few weights
    out = []
    for sym, w in d.atoms:
        if w not in reduced:
            g = math.gcd(w, d.denominator)
            reduced[w] = str(w // g), str(d.denominator // g)
        num, den = reduced[w]
        out.append({"symbols": list(sym), "p": {"num": num, "den": den}})
    return out


def _distribution_from_json(doc, n: int, sizes) -> JointDistribution:
    """Atoms scaled to the lcm of their denominators; the constructor then
    validates symbols, signs, duplicates and the sum."""
    _require(isinstance(doc, list) and doc, "a distribution must be a nonempty list of atoms")
    atoms = []
    for item in doc:
        if not (isinstance(item, dict) and item.keys() == {"symbols", "p"}):
            raise ValueError(f"each atom needs exactly 'symbols' and 'p', got {item!r}")
        sym = item["symbols"]
        if not (isinstance(sym, list) and set(map(type, sym)) <= {int}):  # bools excluded
            raise ValueError(f"'symbols' must be a list of integers, got {sym!r}")
        atoms.append((tuple(sym), *_probability_from_json(item["p"])))
    common = math.lcm(*(den for _, _, den in atoms))
    return JointDistribution(n, sizes, tuple((sym, num * (common // den))
                                             for sym, num, den in atoms), common)


def pair_to_json(pair: StatePair | ProductPair) -> dict:
    if isinstance(pair, ProductPair):
        return {"n": pair.n, "factors": [_factor_to_json(f) for f in pair.factors]}
    return {"n": pair.n,
            "alphabet_sizes": list(pair.rho.alphabet_sizes),
            "rho": _distribution_to_json(pair.rho),
            "sigma": _distribution_to_json(pair.sigma)}


def _factor_to_json(f: Factor) -> dict:
    s, p = f.scheme, f.weight
    return {"q": s.q, "slots": list(map(list, s.forms)), "randomness": s.randomness,
            "weight": {"num": str(p.numerator), "den": str(p.denominator)}}


def pair_from_json(doc) -> StatePair | ProductPair:
    """A dense pair object as a StatePair, a factored one as a
    ProductPair of Factors, each read from its forms and weight."""
    n = _party_count(doc)
    if "factors" not in doc:
        return _dense_pair_from_json(doc, n)
    _require(doc.keys() == {"n", "factors"},
             f"a factored pair holds exactly 'n' and 'factors', got {sorted(doc)}")
    factors = doc["factors"]
    _require(isinstance(factors, list), "'factors' must be a list of factor objects")
    read = []
    for i, item in enumerate(factors, start=1):
        try:
            read.append(_factor_from_json(item, n))
        except ValueError as err:
            raise ValueError(f"factor {i}: {err}") from None
    return ProductPair(n, tuple(read))


def _factor_from_json(doc, n: int) -> Factor:
    # per factor: messages are formatted only on failure
    if not isinstance(doc, dict):
        raise ValueError(f"a factor must be an object, got {doc!r}")
    if "rho" in doc or "sigma" in doc:
        raise ValueError("a dense pair object is not a factor; write a dense pair as the "
                         "single-pair form {'n', 'alphabet_sizes', 'rho', 'sigma'}, "
                         "without 'factors'")
    if doc.keys() != _FACTOR_KEYS:
        raise ValueError(f"a factor holds exactly 'q', 'slots', 'randomness' and 'weight', "
                         f"got {sorted(doc)}")
    slots = doc["slots"]  # the constructor checks each form: an int, or a list, not a bool
    if not (isinstance(slots, list) and len(slots) == n and set(map(type, slots)) <= {list}):
        raise ValueError(f"'slots' must hold one list of forms per party, {n} in all")
    num, den = _probability_from_json(doc["weight"])
    return Factor(Scheme(doc["q"], slots, doc["randomness"]), Fraction(num, den))


def _dense_pair_from_json(doc, n: int) -> StatePair:
    sizes = doc.get("alphabet_sizes")
    _require(isinstance(sizes, list) and len(sizes) == n
             and set(map(type, sizes)) <= {int} and all(s >= 1 for s in sizes),
             f"'alphabet_sizes' must list one positive integer per party, got {sizes!r}")
    sizes = tuple(sizes)
    _require("rho" in doc and "sigma" in doc, "need both 'rho' and 'sigma'")
    return StatePair(_distribution_from_json(doc["rho"], n, sizes),
                     _distribution_from_json(doc["sigma"], n, sizes))


def _violation_to_json(v: Violation) -> dict:
    return {"superset": list(parties(v.superset)),
            "subset": list(parties(v.subset)),
            "v_superset": float(v.v_superset),
            "v_subset": float(v.v_subset)}


def membership_report_to_json(report: MembershipReport) -> dict:
    return {"member": report.member,
            "infinite_part_ok": report.infinite_part_ok,
            "violations": [_violation_to_json(v) for v in report.violations]}


def decomposition_to_json(d: RayDecomposition) -> dict:
    return {"n": d.n,
            "terms": [{"coefficient": float(c),
                       "minimal_sets": [list(parties(m)) for m in u.minimal_sets()],
                       "members": [list(parties(m)) for m in u.sorted_members()]}
                      for c, u in d.terms]}


def verification_report_to_json(report: VerificationReport) -> dict:
    def number(x):
        return "inf" if x == math.inf else float(x)

    doc = {"n": report.target.n,
           "tol": report.tol,
           "passed": report.passed,
           "monotone_ok": report.monotone_ok,
           "max_abs_error": number(report.max_abs_error),
           "failing_subsets": [mask_label(m) for m in report.failing_subsets()],
           "deviations": [{"parties": list(parties(mask)),
                           "target": number(t),
                           "achieved": number(a),
                           "deviation": number(dev)}
                          for mask, t, a, dev in report.deviations()]}
    worst = report.worst_violation()
    if worst is not None:
        doc["worst_violation"] = _violation_to_json(worst)
    return doc


def realization_to_json(result: RealizationResult) -> dict:
    """The realization, with the scheme each ray was built from, its table
    size and the candidate sizes it was chosen over, one per term, and
    the log2 of the product's sigma support: a float at every size,
    where the exact int can pass the digits json.dumps will write."""
    return {"target": vector_to_json(result.target),
            "decomposition": decomposition_to_json(result.decomposition),
            "schemes": [{"kind": plan.kind, "table_atoms": plan.table_atoms,
                         "candidates": dict(plan.candidates)} for plan in result.plans],
            "sigma_atoms_log2": math.log2(result.pair.sigma_atoms),
            "achieved": vector_to_json(result.achieved),
            "max_abs_error": result.max_abs_error}
