"""Command line driver.

Exit codes: 0 when the command succeeds (and any predicate holds), 1 when
a predicate fails (non-member, failed verification, refused synthesis),
2 on usage or input errors.  Results go to stdout as JSON or plain text;
diagnostics go to stderr as one JSON object, usage errors included.  The
parser raises a usage error as ValueError, and the command handlers return
nothing and raise on every refusal, after printing any report; main alone
maps each outcome to its exit code and its stderr object.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cone import TOL, NotInConeError, check_membership, layer_cake_decompose
from .demos import DEMOS, render_demo
from .jsonio import (
    decomposition_to_json,
    membership_report_to_json,
    pair_from_json,
    pair_to_json,
    realization_to_json,
    vector_from_json,
    vector_to_json,
    verification_report_to_json,
)
from .lattice import enumerate_upsets, mask_label, permutation_classes, subsets_in_order
from .realize import RealizationError, dense_pair, describe_deviation, synthesize, verify
from .states import re_vector


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _indicator_table(rows, n: int, sizes=None) -> str:
    labels = [mask_label(m) for m in subsets_in_order(n)]
    widths = [max(len(x), 1) for x in labels]
    header = "ray  " + "  ".join(f"{x:>{w}}" for x, w in zip(labels, widths))
    if sizes is not None:
        header += "  size"
    lines = [header]
    for i, values in enumerate(rows, start=1):
        cells = "  ".join(f"{v:>{w}}" for v, w in zip(values, widths))
        line = f"{i:>3}  {cells}"
        if sizes is not None:
            line += f"  {sizes[i - 1]:>4}"
        lines.append(line)
    return "\n".join(lines)


def _cmd_rays(args) -> None:
    upsets = enumerate_upsets(args.n)
    if args.classes:
        classes = permutation_classes(upsets, args.n)
        rows = [c.representative.indicator_values() for c in classes]
        print(_indicator_table(rows, args.n, sizes=[c.size for c in classes]))
        print(f"{len(classes)} classes, {len(upsets)} up-sets in total")
    else:
        rows = [u.indicator_values() for u in upsets]
        print(_indicator_table(rows, args.n))
        print(f"{len(upsets)} up-sets")


def _cmd_check(args) -> None:
    vector = vector_from_json(_load_json(args.file))
    report = check_membership(vector)
    _emit(membership_report_to_json(report))
    if not report.member:
        raise NotInConeError(report)


def _cmd_decompose(args) -> None:
    vector = vector_from_json(_load_json(args.file))
    decomposition = layer_cake_decompose(vector)
    _emit(decomposition_to_json(decomposition))


def _cmd_synthesize(args) -> None:
    vector = vector_from_json(_load_json(args.file))
    result = synthesize(vector)
    pair = dense_pair(result.pair) if args.dense else result.pair
    summary = json.dumps(realization_to_json(result), indent=2)  # first: if it fails, no file
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(pair_to_json(pair), handle, indent=2)
        handle.write("\n")
    print(summary)


def _cmd_relent(args) -> None:
    pair = pair_from_json(_load_json(args.file))
    _emit(vector_to_json(re_vector(pair)))


def _cmd_verify(args) -> None:
    vector = vector_from_json(_load_json(args.vector))
    pair = pair_from_json(_load_json(args.pair))
    report = verify(vector, pair, tol=args.tol)
    _emit(verification_report_to_json(report))
    if not report.passed:
        raise RealizationError(describe_deviation(report))


def _cmd_demo(args) -> None:
    print(render_demo(args.name), end="")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so main reports it like any
    other input error; the subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recone",
        description="monotonicity-cone toolkit for relative-entropy vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rays", help="enumerate up-sets / extremal rays")
    p.add_argument("--n", type=int, required=True, help="party count (1..5)")
    p.add_argument("--classes", action="store_true",
                   help="collapse to permutation classes")
    p.set_defaults(handler=_cmd_rays)

    p = sub.add_parser("check", help="membership report for a vector file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("decompose", help="layer-cake ray decomposition of a vector file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("synthesize", help="realize a vector file as a state pair")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True, help="where to write the pair JSON")
    p.add_argument("--dense", action="store_true",
                   help="write the tensor product as one pair instead of one factor per ray")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("relent", help="relative-entropy vector of a state-pair file, "
                                      "dense or factored")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_relent)

    p = sub.add_parser("verify", help="check a state pair against a target vector")
    p.add_argument("vector")
    p.add_argument("pair")
    p.add_argument("--tol", type=float, default=TOL,
                   help=f"max allowed |achieved - target| in bits (default: {TOL})")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("demo", help="print a built-in construction")
    p.add_argument("name", choices=sorted(DEMOS))
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except (ValueError, OSError) as err:
        doc = {"error": str(err)}
        if isinstance(err, NotInConeError):
            doc["report"] = membership_report_to_json(err.report)
        print(json.dumps(doc, indent=2), file=sys.stderr)
        return 1 if isinstance(err, (NotInConeError, RealizationError)) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
