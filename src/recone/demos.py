"""Built-in constructions with known relative-entropy vectors.

example5: three parties, weighted (4, 2) Shamir threshold scheme over
GF(5) with share allocation (2, 1, 1); party A alone or any pair can
reconstruct, so the vector is 1 on {A and every set of two or more}.

example6: four parties, two independent (2, 2) Shamir clauses over GF(3),
one on AB and one on CD, written as the forms A = b + r1, B = b + 2 r1,
C = b + r2, D = b + 2 r2; exactly the groups containing AB or CD are
authorized.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import mask_label, parties
from .schemes import Scheme, scheme_state_pair, weighted_threshold_scheme
from .states import marginal, re_vector

#: name -> (description, scheme builder, masks whose marginals are listed)
DEMOS = {
    "example5": ("weighted Shamir threshold scheme over GF(5), threshold 2, "
                 "share allocation (2, 1, 1)",
                 lambda: weighted_threshold_scheme(3, (2, 1, 1), 2, 5),
                 (0b001, 0b010)),
    "example6": ("two (2, 2) Shamir clauses over GF(3), one shared by AB and one by CD",
                 lambda: Scheme(3, [[(1, 1, 0)], [(1, 2, 0)], [(1, 0, 1)], [(1, 0, 2)]], 2),
                 (0b0011, 0b0110)),
}


def _atom_string(scheme: Scheme, mask: int, symbols) -> str:
    """Each listed party's slot values, decoded from its symbol: one GF(q)
    digit per slot, first slot most significant, and one 0 for a party
    with no slot."""
    q, chunks = scheme.q, []
    for party, flat in zip(parties(mask), symbols):
        width = len(scheme.forms[party - 1]) or 1
        digits = (flat // q ** i % q for i in reversed(range(width)))
        chunks.append(("" if q <= 10 else "-").join(map(str, digits)))
    return "".join(chunks)


def render_demo(name: str) -> str:
    """The demo's achieved vector and its rho and sigma marginals on the
    listed masks, one atom per line."""
    description, build, masks = DEMOS[name]
    scheme = build()
    pair = scheme_state_pair(scheme)
    lines = [f"demo {name}: {description}", "achieved vector (bits):",
             "  " + "  ".join(f"{mask_label(m)}={float(v):g}" for m, v in re_vector(pair).entries())]
    for mask in masks:
        for label, dist in (("rho", pair.rho), ("sigma", pair.sigma)):
            lines.append(f"{label} marginal on {mask_label(mask)}:")
            part = marginal(dist, mask)
            rows = sorted((_atom_string(scheme, mask, sym), Fraction(w, part.denominator))
                          for sym, w in part.atoms)
            lines.extend(f"  {text}  {p}" for text, p in rows)
    return "\n".join(lines) + "\n"
