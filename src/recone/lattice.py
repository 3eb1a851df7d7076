"""Subset lattice of [n] as bitmasks, and upward-closed set families.

A nonempty subset S of the parties {1, ..., n} is encoded as an int mask
with bit i-1 set iff party i is in S.  Party counts up to n = 8 are
supported for general operations; exhaustive up-set enumeration is capped
at n = 5 (the counts grow like Dedekind numbers).

The lattice works on one representation of a family: its truth table, an
int with bit m set iff mask m is a member.  An UpSet holds only n and its
table (bit 0, the empty set, clear); masks are validated only where they
come in, as members.  Upward closure is one pass of n shifts of the
table (_closure, for the layer-cake sweep and Scheme.authorized), a
monotone table on k + 1 parties is a pair lo <= hi of monotone tables
on k parties, and relabelling the parties by a transposition is one
delta swap of the table.

Batches of tables share one layout: each table is a lane of one int,
exactly its 2^n bits from n = 3 on (one byte below).  Closure is checked
a batch at a time: every UpSet built from tables passes one _check_closed
of its whole batch (range by min and max, then _check_lanes: the
empty-set bit and the n closure shifts, one operation each on the packed
int), and a lone table skips the packing.  Canonical forms are taken for
a whole batch at once: every relabelling is one of n coset starts
followed by a Heap walk of (n-1)! - 1 delta swaps of the packed int, so
the cost per table falls with the batch; permutation_classes checks,
counts and sorts the forms as packed lanes.  UpSet and OrbitClass are
frozen, slotted records (recone.record) with no instance dict and no
weak references.  On 2 cores with Python 3.11, enumerate_upsets(5) takes
4.5 to 8.5 ms, the classes of all 7 579 up-sets of n = 5 take 10 to 17
ms, and one canonical form at n = 8 takes 3.5 to 7 ms.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import getitem

from .record import Record

MAX_PARTIES = 8
MAX_ENUMERATION_PARTIES = 5

_LETTERS = "ABCDEFGH"


def validate_party_count(n) -> None:
    """Raise ValueError unless n is an int, not a bool, in 1..MAX_PARTIES."""
    if type(n) is not int or not 1 <= n <= MAX_PARTIES:
        raise ValueError(f"party count must be in 1..{MAX_PARTIES}, got {n}")


def validate_mask(mask: int, n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_PARTIES:  # inline: this runs once per member
        validate_party_count(n)
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
    validate_party_count(n)
    return tuple(sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), parties(m))))


@lru_cache(maxsize=None)
def subset_index(n: int) -> dict[int, int]:
    """Position of each nonempty subset mask in the canonical order."""
    return {mask: i for i, mask in enumerate(subsets_in_order(n))}


def _table_of(family, n: int) -> int:
    """Truth table of a family of masks, each one validated."""
    table = 0
    for mask in family:
        validate_mask(mask, n)
        table |= 1 << mask
    return table


@lru_cache(maxsize=None)
def _closure_steps(n: int) -> tuple[tuple[int, int], ...]:
    """Per party j (0-based), the truth table of the masks that lack j
    and the shift 2**j that adds j to each of them."""
    return tuple((sum(1 << m for m in range(1 << n) if not m >> j & 1), 1 << j)
                 for j in range(n))


def _closure(table: int, n: int) -> int:
    """Truth table of the upward closure of a family on [n]: each party j
    in turn joins every member that lacks it, one step of
    _closure_steps(n) per party.  After party j the family is
    {m | T : m a member, T a subset of parties 0..j}, so one pass is
    exact."""
    for without_j, shift in _closure_steps(n):
        table |= (table & without_j) << shift
    return table


def _one_party_up(table: int, n: int, ones: int = 1) -> int:
    """Truth table of the masks that are a member plus one more party, in
    each lane of a packed batch on [n], ones a 1 in each lane's lowest
    bit: per party j, the masks that lack it (ones times the mask)
    shifted by 2^j, which keeps each mask below 2^n, in its own lane."""
    up = 0
    for without_j, shift in _closure_steps(n):
        up |= (table & ones * without_j) << shift
    return up


def _lane_bytes(n: int) -> int:
    """Bytes per lane of a packed batch of truth tables on [n]: exactly
    the 2^n table bits from n = 3 on, one byte below that."""
    return max(1, (1 << n) // 8)


def _pack(tables, size: int) -> int:
    """The tables as lanes of size bytes of one int, the first lowest."""
    return int.from_bytes(b"".join(t.to_bytes(size, "little") for t in tables), "little")


def _ones(size: int, copies: int) -> int:
    """A 1 in the lowest bit of each of copies lanes of size bytes."""
    return int.from_bytes(b"\1".ljust(size, b"\0") * copies, "little")


_NOT_UPSET = "family is not a nonempty upward-closed set of valid masks"


def _check_closed(tables, n: int) -> None:
    """Raise ValueError unless every truth table is a nonempty up-set of
    nonempty masks of [n]; an empty batch passes.

    The range check is min and max of the batch, then the tables sit in
    the lanes of one int for one _check_lanes; a lone table is its own
    packing, so a one-table batch skips the packing and its set-up.
    """
    lanes = len(tables)
    if lanes == 1:
        packed, ones = tables[0], 1
        if packed <= 0 or packed >> (1 << n):
            raise ValueError(_NOT_UPSET)
    elif lanes:
        if min(tables) <= 0 or max(tables) >> (1 << n):
            raise ValueError(_NOT_UPSET)
        size = _lane_bytes(n)
        packed, ones = _pack(tables, size), _ones(size, lanes)
    else:
        return
    _check_lanes(packed, ones, n)


def _check_lanes(packed: int, ones: int, n: int) -> None:
    """Raise ValueError unless every lane of packed, as in _one_party_up,
    lacks the empty set and holds each member plus any one party."""
    if packed & ones or _one_party_up(packed, n, ones) & ~packed:
        raise ValueError(_NOT_UPSET)


class UpSet(Record):
    """An upward-closed family of nonempty subsets of [n], as its truth table."""

    __slots__ = _fields = ("n", "table")

    def __init__(self, n: int, members):
        validate_party_count(n)
        table = _table_of(members, n)
        _check_closed((table,), n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)

    @classmethod
    def _from_tables(cls, n: int, tables) -> list[UpSet]:
        """The up-sets with these truth tables, after one closure check of
        the whole batch; the slot descriptors set the frozen fields."""
        _check_closed(tables, n)
        new, set_n, set_table = object.__new__, cls.n.__set__, cls.table.__set__
        upsets = []
        for table in tables:
            u = new(cls)
            set_n(u, n)
            set_table(u, table)
            upsets.append(u)
        return upsets

    @classmethod
    def _from_table(cls, n: int, table: int) -> UpSet:
        """The up-set with this truth table, under the same closure check."""
        return cls._from_tables(n, (table,))[0]

    @property
    def members(self) -> frozenset[int]:
        """The masks of the table's set bits, read off its binary digits."""
        return frozenset(m for m, bit in enumerate(bin(self.table)[:1:-1]) if bit == "1")

    def __contains__(self, mask) -> bool:
        return type(mask) is int and 0 < mask < 1 << self.n and bool(self.table >> mask & 1)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(m for m in subsets_in_order(self.n) if self.table >> m & 1)

    def minimal_sets(self) -> tuple[int, ...]:
        """The antichain of inclusion-minimal members; its closure is self.

        By closure, a member has a smaller member below it iff it is
        another member plus one party.
        """
        minimal = self.table & ~_one_party_up(self.table, self.n)
        return tuple(m for m in subsets_in_order(self.n) if minimal >> m & 1)

    def indicator_values(self) -> tuple[int, ...]:
        """0/1 membership per subset, in canonical coordinate order."""
        return tuple(self.table >> m & 1 for m in subsets_in_order(self.n))


def enumerate_upsets(n: int) -> list[UpSet]:
    """All up-sets of nonempty subsets of [n], in deterministic order.

    Order: ascending (member count, membership bitset).  A monotone truth
    table on k + 1 parties is lo | hi << 2^k for monotone tables lo within
    hi on k parties (the masks without and with party k + 1), starting from
    the two tables on no parties.  Each round sorts its tables, as lo within
    hi makes lo <= hi, and pairs each hi with the tables up to it.  Two
    stable sorts give the order, with the constant tables (no member, and
    every mask including the empty one) first and last, and drop those.
    """
    validate_party_count(n)
    if n > MAX_ENUMERATION_PARTIES:
        raise ValueError(
            f"up-set enumeration is supported for 1 <= n <= {MAX_ENUMERATION_PARTIES}; "
            f"counts grow too fast beyond that (got n={n})")
    tables = [0, 1]
    for k in range(n):
        tables.sort()
        tables = [lo | hi << (1 << k) for i, hi in enumerate(tables)
                  for lo in tables[:i + 1] if not lo & ~hi]
    tables.sort()
    tables.sort(key=int.bit_count)
    return UpSet._from_tables(n, tables[1:-1])


def _swap(n: int, a: int, i: int) -> tuple[int, int]:
    """The delta swap (shift, mask) that relabels parties a < i.

    Each mask m that holds a but not i moves to m + shift with
    shift = 2^i - 2^a; mask is the truth table of those m.
    """
    steps = _closure_steps(n)
    return (1 << i) - (1 << a), steps[i][0] & ~steps[a][0]


@lru_cache(maxsize=None)
def _heap_walk(n: int) -> tuple[tuple[int, int], ...]:
    """Heap's walk through the (n-1)! relabellings of parties 0..n-2, as
    the (n-1)! - 1 delta swaps of the transpositions it makes."""
    steps = []
    count = [0] * n
    i = 1
    while i < n - 1:
        if count[i] < i:
            steps.append(_swap(n, count[i] if i % 2 else 0, i))
            count[i] += 1
            i = 1
        else:
            count[i] = 0
            i += 1
    return tuple(steps)


def _canonical_lanes(tables: list[int], n: int) -> int:
    """The least relabelling of each truth table on [n], all in one pass,
    packed as the tables are.  Every table must be an up-set (the guards
    need only that none holds the empty set).

    The packed tables are copied into n blocks, block j relabelled by the
    transposition (j, n-1), so Heap's walk over parties 0..n-2 reaches
    every relabelling from one of them.  Each step of the walk is one
    delta swap of the whole int, its mask repeated in every lane, and a
    guard bit above each table gives a lane-wise compare-select that
    keeps the least table seen (SWAR, as in Warren, Hacker's Delight,
    ch. 7).  From n = 3 on, a lane's guard is bit 0 of the lane above,
    the empty set, which no swap moves; the top lane's is one bit above
    the int.  The n blocks are then folded the same way.
    """
    if not tables:
        return 0
    width = 1 << n
    size = _lane_bytes(n)
    lanes = len(tables)
    block = lanes * size * 8

    def least(best: int, cur: int, guard: int) -> int:
        g = ((best | guard) - cur) & guard
        return best ^ (best ^ cur) & (g - (g >> width))

    low = (1 << block) - 1
    ones = _ones(size, n * lanes)
    packed = _pack(tables, size)
    starts = []
    for j in range(n - 1):
        shift, mask = _swap(n, j, n - 1)
        delta = (packed >> shift ^ packed) & ones * mask
        starts.append(packed ^ delta ^ delta << shift)
    starts.append(packed)
    cur = best = _pack(starts, block // 8)
    guard = ones << width
    walk = _heap_walk(n)
    masks = {shift: ones * mask for shift, mask in dict(walk).items()}  # no two swaps share a shift
    for shift, _ in walk:
        delta = (cur >> shift ^ cur) & masks[shift]
        cur ^= delta ^ delta << shift
        best = least(best, cur, guard)
    guard &= low << 1  # block 0's guards, its top lane's at bit 0 of block 1
    out = best & low
    for j in range(1, n):
        out = least(out, best >> j * block & low, guard)
    return out


def _canonical_tables(tables: list[int], n: int) -> list[int]:
    """_canonical_lanes(tables, n) as one int per table."""
    size = _lane_bytes(n)
    buf = _canonical_lanes(tables, n).to_bytes(len(tables) * size, "little")
    return [int.from_bytes(buf[k:k + size], "little") for k in range(0, len(buf), size)]


def canonical_representative(u: UpSet) -> UpSet:
    """Orbit representative under party relabeling: minimal membership bitset."""
    return UpSet._from_table(u.n, _canonical_tables([u.table], u.n)[0])


@lru_cache(maxsize=None)
def _order_key_bytes(n: int) -> tuple[tuple[int, ...], ...]:
    """Per byte of a truth table on [n], the sort key bits of its 256 values.

    The i-th mask in canonical order gives key bit 2^n - 2 - i, so the
    sum of a lane's byte lookups, whose bits are disjoint, compares like
    indicator_values().
    """
    top = (1 << n) - 2
    index = subset_index(n)
    lookups = []
    for first in range(0, 1 << n, 8):
        values = [0]
        for m in range(first, first + 8):
            bit = 1 << top - index[m] if m in index else 0
            values += [v | bit for v in values]
        lookups.append(tuple(values))
    return tuple(lookups)


class OrbitClass(Record):
    """A permutation class of up-sets: canonical representative plus how
    many of the given up-sets fall into the class."""

    __slots__ = _fields = ("representative", "size")

    def __init__(self, representative: UpSet, size: int):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)


def permutation_classes(upsets, n: int) -> list[OrbitClass]:
    """Partition up-sets into classes under party relabeling.

    Classes are ordered by the representative's indicator vector
    (lexicographically, in canonical coordinate order), which for n=3
    reproduces the standard eight-ray table.  The canonical forms stay
    packed for one _check_lanes, and their lanes are counted and sorted
    as bytes, so only a class makes an int, an UpSet and an OrbitClass.
    """
    validate_party_count(n)
    upsets = list(upsets)
    if any(u.n != n for u in upsets):
        raise ValueError("all up-sets must share the same party count")
    size, lanes = _lane_bytes(n), len(upsets)
    forms = _canonical_lanes([u.table for u in upsets], n)
    _check_lanes(forms, _ones(size, lanes), n)
    buf = forms.to_bytes(lanes * size, "little")
    sizes = Counter(buf[k:k + size] for k in range(0, len(buf), size))
    lookups = _order_key_bytes(n)
    new, set_n, set_table, set_rep, set_size = (
        object.__new__, UpSet.n.__set__, UpSet.table.__set__,
        OrbitClass.representative.__set__, OrbitClass.size.__set__)  # frozen: as in UpSet._from_tables
    classes = []
    for lane in sorted(sizes, key=lambda lane: sum(map(getitem, lookups, lane))):
        rep, c = new(UpSet), new(OrbitClass)
        set_n(rep, n)
        set_table(rep, int.from_bytes(lane, "little"))
        set_rep(c, rep)
        set_size(c, sizes[lane])
        classes.append(c)
    return classes
