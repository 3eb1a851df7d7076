"""Built-in constructions with known relative-entropy vectors, each a
monotone formula over the parties 0 = A, 1 = B, ... laid out over GF(q)
by recone.schemes.formula_layout.

example5: a 2-of-4 Shamir gate over GF(5) with leaves A, A, B, C, so
weighted threshold sharing with share allocation (2, 1, 1); A alone or
any pair reconstructs, so the vector is 1 on A and every pair or more.
example6: (A and B) or (C and D), two 2-of-2 Shamir gates over GF(3);
exactly the groups containing AB or CD are authorized.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import mask_label, parties
from .schemes import Scheme, formula_layout, scheme_state_pair
from .states import marginal, re_vector

#: name -> (description, n, formula, q, masks whose marginals are listed)
DEMOS = {
    "example5": ("weighted Shamir threshold scheme over GF(5), threshold 2, "
                 "share allocation (2, 1, 1)",
                 3, (2, (0, 0, 1, 2)), 5, (0b001, 0b010)),
    "example6": ("two (2, 2) Shamir clauses over GF(3), one shared by AB and one by CD",
                 4, (1, ((2, (0, 1)), (2, (2, 3)))), 3, (0b0011, 0b0110)),
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
    description, n, formula, q, masks = DEMOS[name]
    scheme = Scheme(*formula_layout(n, formula, q))
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
