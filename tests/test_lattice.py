import copy
import doctest
import hashlib
import math
import pickle
import random
import re
import weakref
from collections import Counter
from itertools import permutations

import pytest
import conftest
from conftest import fixpoint_closure, is_closed, is_upset, upward_closure

import recone.lattice
from recone.cone import RayDecomposition, REVector, layer_cake_decompose
from recone.lattice import (
    OrbitClass,
    UpSet,
    _closure,
    canonical_representative,
    enumerate_upsets,
    mask_label,
    mask_of,
    parties,
    permutation_classes,
    subsets_in_order,
    validate_mask,
)
from recone.states import JointDistribution, ProductPair

A, B, C = 0b001, 0b010, 0b100
AB, AC, BC, ABC = 0b011, 0b101, 0b110, 0b111


def brute_force_upsets(n):
    """Oracle: filter every family of nonempty subsets by the closure
    definition directly (no package machinery)."""
    masks = list(range(1, 1 << n))
    out = []
    for code in range(1, 1 << len(masks)):
        fam = {masks[i] for i in range(len(masks)) if code >> i & 1}
        ok = True
        for s in fam:
            for t in masks:
                if t & s == s and t not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(fam))
    return out


def apply_permutation(mask, perm):
    """Relabel parties: party i maps to perm[i-1]."""
    out = 0
    for i in range(len(perm)):
        if mask >> i & 1:
            out |= 1 << (perm[i] - 1)
    return out


def relabel(u, perm):
    return UpSet(u.n, frozenset(apply_permutation(m, perm) for m in u.members))


def brute_force_representative(u):
    """Oracle: the smallest truth table over every relabelling of the parties."""
    return min((relabel(u, p) for p in permutations(range(1, u.n + 1))),
               key=lambda v: v.table)


def random_upset(rng, n):
    """Upward closure of one to four random masks."""
    return upward_closure({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))}, n)


def test_mask_helpers():
    assert parties(AC) == (1, 3)
    assert mask_of([1, 3], 3) == AC
    assert mask_label(AC) == "AC"
    assert subsets_in_order(3) == (A, B, C, AB, AC, BC, ABC)
    # n=4 canonical order interleaves AD before BC (party-tuple order)
    order4 = subsets_in_order(4)
    assert order4[:4] == (1, 2, 4, 8)
    assert order4[4:10] == (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)


@pytest.mark.parametrize("mask,n", [(0, 3), (8, 3), (-1, 2), (4, 2)])
def test_invalid_masks_rejected(mask, n):
    with pytest.raises(ValueError):
        validate_mask(mask, n)
    with pytest.raises(ValueError):
        is_upset({mask}, n)


@pytest.mark.parametrize("n", [0, 9])
def test_party_count_outside_one_to_eight_rejected(n):
    for call in (lambda: validate_mask(1, n), lambda: subsets_in_order(n)):
        with pytest.raises(ValueError, match=re.escape(f"party count must be in 1..8, got {n}")):
            call()


@pytest.mark.parametrize("n", [True, 0, 9, -1])
def test_every_entry_point_refuses_a_bool_or_out_of_range_party_count(n):
    # True passes isinstance(n, int) and 1 <= n, and finds the cached
    # subsets_in_order(1); a record built on it would be written as
    # "n": true, which the JSON readers refuse
    size = n if n > 0 else 1
    party_count = re.escape(f"party count must be in 1..8, got {n}")
    calls = {
        "REVector": lambda: REVector(n, (1.0,) * ((1 << size) - 1)),
        "UpSet": lambda: UpSet(n, {1}),
        "RayDecomposition": lambda: RayDecomposition(n, ()),
        "ProductPair": lambda: ProductPair(n, ()),
        "enumerate_upsets": lambda: enumerate_upsets(n),
        "permutation_classes": lambda: permutation_classes([], n),
        "JointDistribution": lambda: JointDistribution(n, (2,) * size, (((0,) * size, 1),), 1),
    }
    for name, call in calls.items():
        # a count below 1 has no alphabet size per party, and says so
        message = ("need one alphabet size per party" if name == "JointDistribution" and n < 1
                   else party_count)
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("mask,message", [
    ("a", "subset mask must be an int, got 'a'"),
    (1.0, "subset mask must be an int, got 1.0"),
    (True, "subset mask must be an int, got True"),
    (0, "subset mask 0 out of range for n=3 (need 1 <= mask < 8)"),
    (8, "subset mask 8 out of range for n=3 (need 1 <= mask < 8)"),
])
def test_is_upset_error_messages(mask, message):
    # every way in from masks: is_upset, UpSet and the upward_closure seed
    for enter in (lambda family: is_upset(family, 3), lambda family: UpSet(3, family),
                  lambda family: upward_closure(family, 3)):
        with pytest.raises(ValueError, match=re.escape(message)):
            enter({ABC, mask})


def test_is_upset_examples():
    assert is_upset({ABC}, 3)
    assert is_upset({AB, ABC}, 3)
    assert not is_upset({A}, 2)  # AB missing
    assert not is_upset(set(), 3)


def closed_by_definition(family, n):
    """Every member plus any one party is a member."""
    return bool(family) and all(m | 1 << j in family for m in family for j in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_upset_agrees_with_definition(n):
    rng = random.Random(n)
    masks = range(1, 1 << n)
    for _ in range(300):
        if rng.random() < 0.5:
            p = rng.random()
            family = {m for m in masks if rng.random() < p}
        else:
            # a closure, sometimes missing one member or with one more
            family = set(random_upset(rng, n).members)
            change = rng.choice([None, "drop", "add"])
            if change == "drop":
                family.discard(rng.choice(sorted(family)))
            elif change == "add":
                family.add(rng.choice(masks))
        assert is_upset(family, n) == closed_by_definition(family, n), (n, sorted(family))


def test_upward_closure_examples():
    assert upward_closure({A}, 3).members == frozenset({A, AB, AC, ABC})
    assert upward_closure({ABC}, 3).members == frozenset({ABC})
    # two disjoint pair generators at n=4 close to a 7-member family
    u = upward_closure({0b0011, 0b1100}, 4)
    assert u.members == frozenset({0b0011, 0b1100, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111})
    with pytest.raises(ValueError):
        upward_closure(set(), 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_one_pass_closure_agrees_with_the_fixpoint(n):
    # sparse seeds to dense tables, the empty set's bit 0 included
    rng = random.Random(1900 + n)
    for _ in range(100):
        density = rng.choice((0.01, 0.05, 0.2, 0.5))
        table = sum(1 << m for m in range(1 << n) if rng.random() < density)
        assert _closure(table, n) == fixpoint_closure(table, n), (n, table)
    assert _closure(0, n) == 0 and _closure(1, n) == (1 << (1 << n)) - 1


def test_upward_closure_idempotent():
    u = upward_closure({A, BC}, 3)
    assert upward_closure(u.members, 3).members == u.members


def test_minimal_sets_examples():
    ray6 = UpSet(3, frozenset({A, AB, AC, BC, ABC}))
    assert ray6.minimal_sets() == (A, BC)
    u = upward_closure({0b0011, 0b1100}, 4)
    assert u.minimal_sets() == (0b0011, 0b1100)
    assert UpSet(3, frozenset({ABC})).minimal_sets() == (ABC,)


def upsets_up_to_8():
    """Every up-set with n <= 4, and seeded closures with n = 5 to 8."""
    for n in (1, 2, 3, 4):
        yield from enumerate_upsets(n)
    rng = random.Random(58)
    for n in (5, 6, 7, 8):
        for _ in range(10):
            yield random_upset(rng, n)


def test_members_and_truth_table_agree():
    # the lattice builds up-sets from truth tables; UpSet(n, members) is
    # the other way in, and every view must read as the member set says
    for u in upsets_up_to_8():
        members = u.members
        assert isinstance(members, frozenset)
        again = UpSet(u.n, members)
        assert again == u and hash(again) == hash(u)
        order = subsets_in_order(u.n)
        assert u.sorted_members() == tuple(m for m in order if m in members)
        assert u.minimal_sets() == tuple(
            m for m in order if m in members and not any(s != m and s & m == s for s in members))
        assert u.indicator_values() == tuple(1 if m in members else 0 for m in order)
        assert u.table == sum(1 << m for m in members)
        assert all((m in u) == (m in members) for m in range(1, 1 << u.n))
        # no mask, no member, and no exception for a non-int
        for probe in (0, -1, 1 << u.n, "a", 1.0):
            assert probe not in u


def test_lattice_builds_upsets_without_validating_masks(monkeypatch):
    calls = []

    def counted(mask, n):
        calls.append(mask)
        validate_mask(mask, n)

    check = recone.lattice._check_lanes
    batches = []

    def counted_check(packed, ones, n):
        batches.append(ones.bit_count())
        check(packed, ones, n)

    monkeypatch.setattr(recone.lattice, "validate_mask", counted)
    monkeypatch.setattr(recone.lattice, "_check_lanes", counted_check)
    # up-sets built from truth tables the lattice knows to be monotone,
    # each batch under one closure check of all its lanes: the
    # enumeration, the canonical forms of its 7 579 up-sets (one lane
    # each, before they are counted into 208 classes) and the 3 terms
    upsets = enumerate_upsets(5)
    assert len(permutation_classes(upsets, 5)) == 208
    indicators = [u.indicator_values() for u in (upsets[0], upsets[500], upsets[-1])]
    member = REVector(5, tuple(2 * a + 0.5 * b + c for a, b, c in zip(*indicators)))
    assert len(layer_cake_decompose(member).terms) == 3
    assert calls == []
    assert batches == [7579, 7579, 3]
    # the ways in from masks check each one
    UpSet(3, {AB, ABC})
    is_upset({AB, ABC}, 3)
    upward_closure({AB, ABC}, 3)
    assert sorted(calls) == [AB] * 3 + [ABC] * 3


def test_upset_validation():
    with pytest.raises(ValueError):
        UpSet(3, frozenset({A}))  # not closed
    with pytest.raises(ValueError):
        UpSet(3, frozenset())


NOT_UPSET = "family is not a nonempty upward-closed set of valid masks"
FAULTS = ("empty table", "empty set", "beyond 2^n", "missing superset", "negative")


def faulty_table(rng, n, kind):
    """A truth table on [n] that is not an up-set, in the given way."""
    table = random_upset(rng, n).table
    if kind == "empty table":
        return 0
    if kind == "empty set":
        return table | 1
    if kind == "beyond 2^n":  # the guard bit of a packed lane, or far above it
        return table | 1 << rng.choice([1 << n, (1 << n) + rng.randrange(1, 300)])
    if kind == "negative":
        return -table
    # missing superset: the closure of a mask short of [n], less one member
    # that has a member below it
    table = upward_closure({rng.randrange(1, (1 << n) - 1)}, n).table
    above = [m for m in range(1, 1 << n) if table >> m & 1
             and any(table >> (m ^ 1 << j) & 1 for j in range(n) if m >> j & 1 and m != 1 << j)]
    return table & ~(1 << rng.choice(above))


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_closure_check_agrees_with_oracle(n):
    # batches of up-set tables with at most one faulty lane; n < 3 packs
    # lanes narrower than a byte.  At n = 1 every nonempty table of
    # nonempty masks is closed, so no superset can be missing.
    rng = random.Random(n)
    kinds = [kind for kind in FAULTS if n > 1 or kind != "missing superset"]
    for kind in kinds + [None]:
        for size in (1, 2, 7, rng.randint(8, 100)):
            tables = [random_upset(rng, n).table for _ in range(size)]
            if kind:
                tables[rng.randrange(size)] = faulty_table(rng, n, kind)
            refused = not all(is_closed(t, n) for t in tables)
            assert refused == (kind is not None), (n, kind)
            if refused:
                with pytest.raises(ValueError, match=re.escape(NOT_UPSET)):
                    UpSet._from_tables(n, tables)
            else:
                built = UpSet._from_tables(n, tables)
                assert built == [UpSet(n, {m for m in range(1, 1 << n) if t >> m & 1})
                                 for t in tables]
    assert UpSet._from_tables(n, []) == []


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18), (4, 166)])
def test_enumerate_counts_match_oracle(n, count):
    upsets = enumerate_upsets(n)
    oracle = brute_force_upsets(n)
    assert len(oracle) == count
    assert len(upsets) == count
    assert {u.members for u in upsets} == set(oracle)


def test_enumerate_no_duplicates_and_valid():
    upsets = enumerate_upsets(4)
    seen = {u.members for u in upsets}
    assert len(seen) == len(upsets)
    for u in upsets:
        assert is_upset(u.members, 4)


def test_enumerate_deterministic_order():
    upsets = enumerate_upsets(3)
    keys = [(len(u.members), u.table) for u in upsets]
    assert keys == sorted(keys)
    assert upsets[0].members == frozenset({ABC})
    assert enumerate_upsets(3) == upsets


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_upsets(6)
    with pytest.raises(ValueError):
        enumerate_upsets(0)


def test_minimal_sets_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        for u in enumerate_upsets(n):
            assert upward_closure(u.minimal_sets(), n) == u


@pytest.mark.parametrize("n,upsets,classes", [
    (1, 1, 1), (2, 4, 3), (3, 18, 8), (4, 166, 28), (5, 7579, 208),
])
def test_lattice_counts(n, upsets, classes):
    # up-sets: Dedekind numbers minus the two constant families; classes:
    # A003182(n) - 2
    enumerated = enumerate_upsets(n)
    assert len(enumerated) == upsets
    found = permutation_classes(enumerated, n)
    assert len(found) == classes
    assert sum(c.size for c in found) == upsets


def test_classes_n5_digest_and_order():
    upsets = enumerate_upsets(5)
    keys = [(len(u.members), u.table) for u in upsets]
    assert keys == sorted(set(keys))
    reps = [c.representative.members for c in permutation_classes(upsets, 5)]
    digest = hashlib.sha256(repr(sorted(sorted(m) for m in reps)).encode()).hexdigest()
    assert digest == "6117effbed349df5f6d17699234bb602838ed33313804a009bc4c59c8efe8589"


def test_enumeration_order_n5_digest():
    # every truth table of enumerate_upsets(5), in its order: any reordering,
    # even among up-sets of one member count, changes the digest
    tables = repr([u.table for u in enumerate_upsets(5)])
    digest = hashlib.sha256(tables.encode()).hexdigest()
    assert digest == "dc9beb781a2919ee4c0d91cea79c20b7d73471831f5cd391f953fc378b17959c"


def test_canonical_representative_matches_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for u in enumerate_upsets(n):
            assert canonical_representative(u) == brute_force_representative(u)


def test_canonical_representative_matches_oracle_sampled():
    rng = random.Random(5)
    sample = rng.sample(enumerate_upsets(5), 40) + [random_upset(rng, 6) for _ in range(3)]
    for u in sample:
        assert canonical_representative(u) == brute_force_representative(u)


@pytest.mark.parametrize("n", [7, 8])
def test_canonical_representative_is_relabelling_invariant(n, monkeypatch):
    # the work is bounded by a count, not a clock: Heap's walk over parties
    # 0..n-2 is (n-1)! - 1 swaps, and each form is one batch kernel call
    assert len(recone.lattice._heap_walk(n)) == math.factorial(n - 1) - 1
    kernel = recone.lattice._canonical_tables
    calls = []

    def counted(tables, n):
        calls.append(len(tables))
        return kernel(tables, n)

    monkeypatch.setattr(recone.lattice, "_canonical_tables", counted)
    rng = random.Random(n)

    def representative(u):
        calls.clear()
        rep = canonical_representative(u)
        assert calls == [1]
        return rep

    for _ in range(2):
        u = random_upset(rng, n)
        rep = representative(u)
        for _ in range(3):
            perm = tuple(rng.sample(range(1, n + 1), n))
            assert representative(relabel(u, perm)) == rep


def test_apply_permutation():
    # swap parties 1 and 2 at n=3
    perm = (2, 1, 3)
    assert apply_permutation(A, perm) == B
    assert apply_permutation(AC, perm) == BC
    assert apply_permutation(ABC, perm) == ABC


def test_canonical_representative_prefers_low_parties():
    u = UpSet(3, frozenset({C, AC, BC, ABC}))
    assert canonical_representative(u).members == frozenset({A, AB, AC, ABC})


def test_permutation_classes_n3_table():
    upsets = enumerate_upsets(3)
    classes = permutation_classes(upsets, 3)
    table = [(c.representative.indicator_values(), c.size) for c in classes]
    assert table == [
        ((0, 0, 0, 0, 0, 0, 1), 1),
        ((0, 0, 0, 1, 0, 0, 1), 3),
        ((0, 0, 0, 1, 1, 0, 1), 3),
        ((0, 0, 0, 1, 1, 1, 1), 1),
        ((1, 0, 0, 1, 1, 0, 1), 3),
        ((1, 0, 0, 1, 1, 1, 1), 3),
        ((1, 1, 0, 1, 1, 1, 1), 3),
        ((1, 1, 1, 1, 1, 1, 1), 1),
    ]
    assert sum(c.size for c in classes) == len(upsets)


def test_permutation_classes_orbit_sizes():
    ray5 = upward_closure({A}, 3)
    orbit = {canonical_representative(ray5).table}
    images = set()
    for p in permutations((1, 2, 3)):
        images.add(frozenset(apply_permutation(m, p) for m in ray5.members))
    assert len(images) == 3
    classes = permutation_classes(enumerate_upsets(3), 3)
    by_rep = {c.representative.members: c.size for c in classes}
    assert by_rep[ray5.members] == 3


@pytest.mark.parametrize("n,batch", [
    *((n, enumerate_upsets(n)) for n in (1, 2, 3, 4)),
    (5, random.Random(5).sample(enumerate_upsets(5), 60)),
    (6, [random_upset(random.Random(6), 6) for _ in range(12)]),
    (7, [random_upset(random.Random(7), 7) for _ in range(4)]),
])
def test_batch_canonical_forms_match_oracle(n, batch):
    # the batch kernel gives every member's own least relabelling, lane by
    # lane; from n = 3 on, a lane's guard is the empty-set bit of the lane
    # above, so only a batch of several lanes tests it
    oracle = [brute_force_representative(u) for u in batch]
    reps = recone.lattice._canonical_tables([u.table for u in batch], n)
    assert reps == [rep.table for rep in oracle]
    assert {c.representative: c.size for c in permutation_classes(batch, n)} == Counter(oracle)


def test_batch_canonical_forms_at_n8_do_not_change_under_relabelling():
    # four n = 8 up-sets, each in three relabellings and as itself,
    # shuffled into one batch of sixteen 256-bit lanes: every lane comes
    # out as its up-set's lone form, and the classes count four of each
    rng = random.Random(88)
    upsets = [random_upset(rng, 8) for _ in range(4)]
    batch = [(u, relabel(u, tuple(rng.sample(range(1, 9), 8)))) for u in upsets for _ in range(3)]
    batch += [(u, u) for u in upsets]
    rng.shuffle(batch)
    forms = recone.lattice._canonical_tables([v.table for _, v in batch], 8)
    assert forms == [canonical_representative(u).table for u, _ in batch]
    reps = {canonical_representative(u) for u in upsets}
    assert len(reps) == 4
    classes = permutation_classes([v for _, v in batch], 8)
    assert {c.representative: c.size for c in classes} == dict.fromkeys(reps, 4)


def test_permutation_classes_takes_any_iterable():
    upsets = enumerate_upsets(3)
    assert permutation_classes((u for u in upsets), 3) == permutation_classes(upsets, 3)
    assert permutation_classes(iter(()), 3) == []
    assert permutation_classes([], 8) == []


def test_permutation_classes_rejects_mixed_party_counts():
    mixed = [upward_closure({A}, 3), upward_closure({A}, 4), upward_closure({B}, 3)]
    for order in (mixed, mixed[::-1]):
        with pytest.raises(ValueError, match="same party count"):
            permutation_classes(order, 3)
    with pytest.raises(ValueError, match="same party count"):
        permutation_classes((u for u in mixed[:1]), 4)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_permutation_classes_one_orbit(n):
    rng = random.Random(n)
    u = random_upset(rng, n)
    batch = [u, u] + [relabel(u, tuple(rng.sample(range(1, n + 1), n))) for _ in range(5)] + [u]
    rng.shuffle(batch)
    assert permutation_classes(batch, n) == [OrbitClass(brute_force_representative(u), 8)]


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_upsets_and_classes_are_frozen_and_slotted(n):
    # up-sets from members, from the lattice's tables and as class
    # representatives, and the classes themselves
    u = random_upset(random.Random(n), n)
    c = permutation_classes([u, u], n)[0]
    for obj in (UpSet(n, u.members), u, c.representative, c):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(obj)
        copies = [pickle.loads(pickle.dumps(obj, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.deepcopy(obj), copy.copy(obj)]:
            assert type(other) is type(obj) and other == obj and hash(other) == hash(obj)
        for field in type(obj)._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError):
                delattr(obj, field)
    assert c.size == 2 and c.representative == canonical_representative(u)


def test_permutation_classes_n1():
    classes = permutation_classes(enumerate_upsets(1), 1)
    assert classes == [OrbitClass(UpSet(1, frozenset({1})), 1)]


def test_orbit_sizes_sum_n4():
    upsets = enumerate_upsets(4)
    classes = permutation_classes(upsets, 4)
    assert sum(c.size for c in classes) == 166


def test_lattice_doctests_run_and_pass():
    # the suite collects tests/ only, so the >>> examples of the lattice
    # helpers kept there run here
    result = doctest.testmod(conftest)
    assert result.attempted >= 1
    assert result.failed == 0
