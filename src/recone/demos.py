"""Built-in constructions with known relative-entropy vectors.

example5: three parties, weighted (4, 2) Shamir threshold scheme over
GF(5) with share allocation (2, 1, 1); party A alone or any pair can
reconstruct, so the vector is 1 on {A and every set of two or more}.

example6: four parties, two independent (2, 2) Shamir clauses over GF(3),
one on AB and one on CD; exactly the groups containing AB or CD are
authorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cone import REVector
from .lattice import mask_label, parties, subsets_in_order, upward_closure
from .schemes import (
    Scheme,
    party_digits,
    scheme_state_pair,
    threshold_clause_scheme,
    weighted_threshold_scheme,
)
from .states import StatePair, marginal, re_vector


@dataclass(frozen=True)
class Demo:
    name: str
    description: str
    scheme: Scheme
    pair: StatePair
    vector: REVector
    highlight_masks: tuple[int, ...]


def example5() -> Demo:
    scheme = weighted_threshold_scheme(3, (2, 1, 1), 2, 5)
    pair = scheme_state_pair(scheme)
    return Demo(
        name="example5",
        description="weighted Shamir threshold scheme over GF(5), threshold 2, "
                    "share allocation (2, 1, 1)",
        scheme=scheme,
        pair=pair,
        vector=re_vector(pair),
        highlight_masks=(0b001, 0b010),
    )


def example6() -> Demo:
    scheme = threshold_clause_scheme(upward_closure({0b0011, 0b1100}, 4))
    pair = scheme_state_pair(scheme)
    return Demo(
        name="example6",
        description="two (2, 2) Shamir clauses over GF(3), one shared by AB "
                    "and one by CD",
        scheme=scheme,
        pair=pair,
        vector=re_vector(pair),
        highlight_masks=(0b0011, 0b0110),
    )


DEMOS = {"example5": example5, "example6": example6}


def _format_value(x) -> str:
    return f"{float(x):g}"


def _atom_string(scheme: Scheme, mask: int, symbols) -> str:
    chunks = []
    for party, flat in zip(parties(mask), symbols):
        layout = scheme.registers[party - 1]
        digits = party_digits(layout, flat)
        sep = "" if all(s <= 10 for s in layout) else "-"
        chunks.append(sep.join(str(d) for d in digits))
    return "".join(chunks)


def render_demo(demo: Demo) -> str:
    lines = [f"demo {demo.name}: {demo.description}"]
    lines.append("achieved vector (bits):")
    cells = [f"{mask_label(m)}={_format_value(v)}" for m, v in demo.vector.entries()]
    lines.append("  " + "  ".join(cells))
    for mask in demo.highlight_masks:
        for label, dist in (("rho", demo.pair.rho), ("sigma", demo.pair.sigma)):
            lines.append(f"{label} marginal on {mask_label(mask)}:")
            part = marginal(dist, mask)
            rows = sorted((_atom_string(demo.scheme, mask, sym), Fraction(w, part.denominator))
                          for sym, w in part.atoms)
            for text, p in rows:
                lines.append(f"  {text}  {p}")
    return "\n".join(lines) + "\n"
