"""Subset lattice of [n] as bitmasks, and upward-closed set families.

A nonempty subset S of the parties {1, ..., n} is encoded as an int mask
with bit i-1 set iff party i is in S.  Party counts up to n = 8 are
supported for general operations; exhaustive up-set enumeration is capped
at n = 5 (the counts grow like Dedekind numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

MAX_PARTIES = 8
MAX_ENUMERATION_PARTIES = 5

_LETTERS = "ABCDEFGH"


def validate_mask(mask: int, n: int) -> None:
    if not 1 <= n <= MAX_PARTIES:
        raise ValueError(f"party count must be in 1..{MAX_PARTIES}, got {n}")
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise ValueError(f"subset mask must be an int, got {mask!r}")
    if mask <= 0 or mask >= 1 << n:
        raise ValueError(f"subset mask {mask} out of range for n={n} (need 1 <= mask < {1 << n})")


def parties(mask: int) -> tuple[int, ...]:
    """1-based party indices of a mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(party_list, n: int) -> int:
    """Mask for an iterable of 1-based party indices."""
    mask = 0
    for i in party_list:
        if not 1 <= i <= n:
            raise ValueError(f"party {i} out of range for n={n}")
        mask |= 1 << (i - 1)
    validate_mask(mask, n)
    return mask


def mask_label(mask: int) -> str:
    """Human-readable label, e.g. 0b101 -> 'AC'."""
    return "".join(_LETTERS[i - 1] for i in parties(mask))


@lru_cache(maxsize=None)
def subsets_in_order(n: int) -> tuple[int, ...]:
    """All nonempty subset masks in the canonical coordinate order.

    Sorted by cardinality, then lexicographically by the party tuple, so
    for n=3 the order is A, B, C, AB, AC, BC, ABC.
    """
    if not 1 <= n <= MAX_PARTIES:
        raise ValueError(f"party count must be in 1..{MAX_PARTIES}, got {n}")
    return tuple(sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), parties(m))))


@lru_cache(maxsize=None)
def subset_index(n: int) -> dict[int, int]:
    """Position of each nonempty subset mask in the canonical order."""
    return {mask: i for i, mask in enumerate(subsets_in_order(n))}


def proper_submasks(mask: int):
    """Proper nonempty submasks of a mask."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def is_upset(family, n: int) -> bool:
    """True iff the family of masks is nonempty and closed under supersets."""
    members = set(family)
    for mask in members:
        validate_mask(mask, n)
    if not members:
        return False
    for mask in members:
        for j in range(n):
            sup = mask | (1 << j)
            if sup != mask and sup not in members:
                return False
    return True


@dataclass(frozen=True)
class UpSet:
    """An upward-closed family of nonempty subsets of [n]."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not is_upset(self.members, self.n):
            raise ValueError("family is not a nonempty upward-closed set of valid masks")

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members, key=subset_index(self.n).__getitem__))

    def minimal_sets(self) -> tuple[int, ...]:
        """The antichain of inclusion-minimal members; its closure is self.

        By closure, a member has a smaller member below it iff it is
        another member plus one party.
        """
        bits = [1 << i for i in range(self.n)]
        covered = {m | b for m in self.members for b in bits if not m & b}
        return tuple(sorted(self.members - covered, key=subset_index(self.n).__getitem__))

    def encoding(self) -> int:
        """Membership bitset: bit mask-1 set iff mask is a member."""
        return sum(1 << (m - 1) for m in self.members)

    def indicator_values(self) -> tuple[int, ...]:
        """0/1 membership per subset, in canonical coordinate order."""
        return tuple(1 if m in self.members else 0 for m in subsets_in_order(self.n))


def upward_closure(seed, n: int) -> UpSet:
    """Smallest up-set containing the given nonempty seed of masks.

    >>> sorted(upward_closure({0b001}, 3).members)
    [1, 3, 5, 7]
    """
    seed = set(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    for mask in seed:
        validate_mask(mask, n)
    closed = set()
    for mask in seed:
        # add every superset of mask: mask | (any submask of the complement)
        rest = ((1 << n) - 1) & ~mask
        closed.add(mask)
        sup = rest
        while sup:
            closed.add(mask | sup)
            sup = (sup - 1) & rest
    return UpSet(n, frozenset(closed))


def enumerate_upsets(n: int) -> list[UpSet]:
    """All up-sets of nonempty subsets of [n], in deterministic order.

    Order: ascending (member count, membership bitset).  Recursive
    extension over subsets of decreasing cardinality; a subset may join
    only once all its immediate supersets are in, so closure never has to
    be re-checked on complete families.
    """
    if not 1 <= n <= MAX_ENUMERATION_PARTIES:
        raise ValueError(
            f"up-set enumeration is supported for 1 <= n <= {MAX_ENUMERATION_PARTIES}; "
            f"counts grow too fast beyond that (got n={n})")
    masks = sorted(range(1, 1 << n), key=lambda m: (-m.bit_count(), m))
    found: list[frozenset[int]] = []
    chosen: set[int] = set()

    def extend(i: int) -> None:
        if i == len(masks):
            if chosen:
                found.append(frozenset(chosen))
            return
        m = masks[i]
        if all((m | (1 << j)) in chosen for j in range(n) if not m >> j & 1):
            chosen.add(m)
            extend(i + 1)
            chosen.remove(m)
        extend(i + 1)

    extend(0)
    upsets = [UpSet(n, fam) for fam in found]
    upsets.sort(key=lambda u: (len(u.members), u.encoding()))
    return upsets


def apply_permutation(mask: int, perm: tuple[int, ...]) -> int:
    """Relabel parties: party i maps to perm[i-1]."""
    out = 0
    for i in range(len(perm)):
        if mask >> i & 1:
            out |= 1 << (perm[i] - 1)
    return out


def canonical_representative(u: UpSet) -> UpSet:
    """Orbit representative under party relabeling: minimal membership bitset."""
    best = None
    for perm in permutations(range(1, u.n + 1)):
        enc = sum(1 << (apply_permutation(m, perm) - 1) for m in u.members)
        if best is None or enc < best:
            best = enc
    members = frozenset(i + 1 for i in range((1 << u.n) - 1) if best >> i & 1)
    return UpSet(u.n, members)


@dataclass(frozen=True)
class OrbitClass:
    """A permutation class of up-sets: canonical representative plus how
    many of the given up-sets fall into the class."""

    representative: UpSet
    size: int


def permutation_classes(upsets, n: int) -> list[OrbitClass]:
    """Partition up-sets into classes under party relabeling.

    Classes are ordered by the representative's indicator vector
    (lexicographically, in canonical coordinate order), which for n=3
    reproduces the standard eight-ray table.
    """
    groups: dict[int, int] = {}
    for u in upsets:
        if u.n != n:
            raise ValueError("all up-sets must share the same party count")
        rep = canonical_representative(u)
        groups[rep.encoding()] = groups.get(rep.encoding(), 0) + 1
    classes = []
    for enc, size in groups.items():
        members = frozenset(i + 1 for i in range((1 << n) - 1) if enc >> i & 1)
        classes.append(OrbitClass(UpSet(n, members), size))
    classes.sort(key=lambda c: c.representative.indicator_values())
    return classes
