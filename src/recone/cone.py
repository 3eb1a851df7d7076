"""Membership and ray decomposition for the monotonicity cone.

The cone consists of all vectors, indexed by the nonempty subsets of [n],
that are nonnegative and monotone under restriction (v_S >= v_S' whenever
S contains S').  Its extremal rays are the 0/1 indicator vectors of
up-sets, so a vector is a member iff each level set {S : v_S >= t} is an
up-set, and every member splits canonically into a positive combination
of nested up-set indicators: the layer cake over its level sets.  Both
are read from one sweep over the distinct values, from the top, on truth
tables; the 3^n comparable pairs are walked only to list violations.
Those tables are a vector's level map, REVector.levels, built once per
vector, or kept from a vector built level by level, as rank vectors are.

Values are in bits.  Entries may be ints, Fractions or floats; +inf (as
math.inf) is allowed for membership checks but not for decomposition.

One tolerance policy holds throughout the package: a vector whose entries
are all ints or Fractions compares exactly, and a vector holding any float
treats entries within TOL of each other as equal.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .lattice import UpSet, _closure, subset_index, subsets_in_order, validate_party_count
from .record import Record

#: bits by which float entries may differ and still count as equal
TOL = 1e-9


class NotInConeError(ValueError):
    """Operation requires a cone member; carries the membership report."""

    def __init__(self, report):
        super().__init__("vector is not in the monotonicity cone")
        self.report = report


class InfiniteEntryError(ValueError):
    """Operation requires a finite vector."""


def _check_entries(values) -> None:
    for v in values:
        if isinstance(v, float) and math.isnan(v):
            raise ValueError("NaN entry")
        if v < 0:
            raise ValueError(f"negative entry {v}")


class REVector(Record):
    """One extended nonnegative real per nonempty subset, in canonical
    coordinate order (cardinality, then party tuple); values is the
    public form and levels the working one, kept in the instance dict."""

    _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        validate_party_count(n)
        values = tuple(values)
        expected = (1 << n) - 1
        if len(values) != expected:
            raise ValueError(f"need {expected} entries for n={n}, got {len(values)}")
        _check_entries(values)
        vars(self).update(n=n, values=values)

    @classmethod
    def _from_levels(cls, n: int, levels: dict) -> "REVector":
        """The vector holding each key of levels on the masks of its truth
        table; the tables must split the nonempty subsets.  Each distinct
        value is checked as an entry is, and levels is kept as the level
        map, so the vector's entries are never grouped again."""
        _check_entries(levels)
        index = subset_index(n)
        fill, most = None, -1  # the level with most masks; of a tie, the first
        for val, table in levels.items():
            if (count := table.bit_count()) > most:
                fill, most = val, count
        values = [fill] * len(index)
        for val, table in levels.items():
            if val is not fill:
                while table:
                    low = table & -table
                    values[index[low.bit_length() - 1]] = val
                    table ^= low
        v = object.__new__(cls)
        vars(v).update(n=n, values=tuple(values), levels=levels)
        return v

    @cached_property
    def levels(self) -> dict:
        """Each distinct entry mapped to the truth table of the subsets
        holding it.  Keys are first seen in canonical order, so equal
        entries (an int 1 and a float 1.0, say) share the first one's key."""
        at = {}
        for m, val in zip(subsets_in_order(self.n), self.values):
            at[val] = at.get(val, 0) | 1 << m
        return at

    @classmethod
    def from_mapping(cls, n: int, mapping) -> "REVector":
        order = subsets_in_order(n)
        if set(mapping) != set(order):
            raise ValueError("mapping must cover every nonempty subset exactly once")
        return cls(n, tuple(mapping[m] for m in order))

    def entries(self):
        return zip(subsets_in_order(self.n), self.values)

    def is_finite(self) -> bool:
        return math.inf not in self.levels


Violation = namedtuple("Violation", "superset subset v_superset v_subset")


class MembershipReport(Record):
    __slots__ = _fields = ("member", "violations", "infinite_part_ok")

    def __init__(self, member: bool, violations: tuple[Violation, ...], infinite_part_ok: bool):
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "infinite_part_ok", infinite_part_ok)


_MEMBER = MembershipReport(member=True, violations=(), infinite_part_ok=True)


def _is_exact(value) -> bool:
    """True for an int or a Fraction but not a bool.  A float, the common
    entry, is refused first: the Fraction test goes through ABCMeta."""
    if isinstance(value, float):
        return False
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _slack(values):
    """0 when every entry is exact, so Fractions never round through
    float; TOL when any entry is a float."""
    return 0 if all(map(_is_exact, values)) else TOL


def _first(v: REVector, table: int):
    """The entry of the table's first mask in canonical order."""
    return next(val for m, val in v.entries() if table >> m & 1)


def _sweep(v: REVector, slack):
    """The layer cake's groups from the top, [top, H at the group's lowest
    level] each, or None when v is not a member: some hull level H_t, the
    upward closure of the entries at t or above, holds an entry below
    t - slack.  The +inf entries sort first and fail unless closed."""
    at = v.levels
    levels = sorted(at, reverse=True)
    count = len(levels)
    groups = []
    hull = reach = j = 0
    for i, t in enumerate(levels):
        if not (up := at[t] & ~hull):  # the entries at t that no higher level lifts
            continue
        name = t if up == at[t] else _first(v, up)
        up = _closure(up, v.n)
        layer, hull = up & ~hull, hull | up
        floor = t - slack
        while j < count and levels[j] >= floor:
            reach |= at[levels[j]]
            j += 1
        if hull & ~reach:
            return None
        if groups and not groups[-1][0] - name > slack:
            lowest = name  # the smallest entry lifted here; none is below t - slack
            for k in range(j - 1, i, -1):
                if lifted := at[levels[k]] & layer:
                    lowest = levels[k] if lifted == at[levels[k]] else _first(v, lifted)
                    break
            if not groups[-1][0] - lowest > slack:
                groups[-1][1] = hull
                continue
        groups.append([name, hull])
    return groups


def check_membership(v: REVector) -> MembershipReport:
    """Test cone membership, listing every failed comparable pair.

    A pair (S, S') with S' a proper subset of S violates monotonicity when
    v_S < v_S' - slack, with the slack of the tolerance policy; only
    finite entries are compared.  The subsets carrying +inf must
    themselves form an up-set (vacuously fine when there are none).  The
    level-set sweep decides; the pairs are walked only when v fails.
    """
    slack = _slack(v.values)
    if _sweep(v, slack) is not None:
        return _MEMBER
    return _pair_walk(v, slack)


def _pair_walk(v: REVector, slack) -> MembershipReport:
    """The report on a vector the sweep refused: every failed comparable
    pair, and whether the +inf entries form an up-set."""
    value = dict(v.entries())
    infinite = v.levels.get(math.inf, 0)
    infinite_ok = _closure(infinite, v.n) == infinite
    violations = []
    for mask, vs in value.items():
        if vs == math.inf:
            continue
        sub = (mask - 1) & mask
        while sub:
            vsub = value[sub]
            if vsub != math.inf and vs < vsub - slack:
                violations.append(Violation(mask, sub, vs, vsub))
            sub = (sub - 1) & mask
    violations.sort(key=lambda x: (x.superset, x.subset))
    return MembershipReport(member=False, violations=tuple(violations),
                            infinite_part_ok=infinite_ok)


class RayDecomposition(Record):
    """Positive combination of nested up-set indicators, innermost first:
    terms holds (coefficient, UpSet) pairs with strictly growing up-sets."""

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n: int, terms: tuple):
        validate_party_count(n)
        terms = tuple(terms)
        prev = None
        for coeff, upset in terms:
            if not coeff > 0:
                raise ValueError(f"coefficient must be positive, got {coeff}")
            if upset.n != n:
                raise ValueError("up-set party count mismatch")
            if prev is not None and (prev.table & ~upset.table or prev.table == upset.table):
                raise ValueError("up-sets must be strictly nested, innermost first")
            prev = upset
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)


def layer_cake_decompose(v: REVector) -> RayDecomposition:
    """Split a finite cone member over the level sets of its monotone hull.

    The hull raises each entry to the largest entry on its subsets, so a
    member moves by at most the slack, and the sweep builds its level sets.
    Hull levels are grouped from the top, and each group stands for its
    largest level, named by its first entry not lifted above it.  A hull
    level joins the group above only if every original entry on it lies
    within the slack of that group's top, so no entry moves by more than
    the slack in all; a group within the slack of 0 is dropped.  With
    t_1 > ... > t_k the group tops, the i-th term is (t_i - t_{i+1}) times
    the indicator of the subsets in groups 1..i.  The zero vector
    decomposes into no terms.  NotInConeError precedes InfiniteEntryError.
    """
    slack = _slack(v.values)
    groups = _sweep(v, slack)
    if groups is None:
        raise NotInConeError(_pair_walk(v, slack))
    if not v.is_finite():
        raise InfiniteEntryError("decomposition is defined for finite vectors only")
    if groups and groups[-1][0] <= slack:
        groups.pop()
    nexts = [top for top, _ in groups[1:]] + [0]
    upsets = UpSet._from_tables(v.n, [table for _, table in groups])
    return RayDecomposition(v.n, tuple([(top - t_next, u)
                                        for (top, _), t_next, u in zip(groups, nexts, upsets)]))
