"""Command line driver.

Exit codes: 0 when the command succeeds (and any predicate holds), 1 when
a predicate fails (non-member, failed verification, refused synthesis),
2 on usage or input errors.  Results go to stdout as JSON or plain text;
diagnostics go to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cone import NotInConeError, check_membership, layer_cake_decompose
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
from .realize import RealizationError, describe_deviation, synthesize, verify
from .states import re_vector


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _fail(message: str, **extra) -> None:
    doc = {"error": message}
    doc.update(extra)
    print(json.dumps(doc, indent=2), file=sys.stderr)


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


def _cmd_rays(args) -> int:
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
    return 0


def _cmd_check(args) -> int:
    vector = vector_from_json(_load_json(args.file))
    report = check_membership(vector)
    _emit(membership_report_to_json(report))
    return 0 if report.member else 1


def _cmd_decompose(args) -> int:
    vector = vector_from_json(_load_json(args.file))
    decomposition = layer_cake_decompose(vector)
    _emit(decomposition_to_json(decomposition))
    return 0


def _cmd_synthesize(args) -> int:
    vector = vector_from_json(_load_json(args.file))
    result = synthesize(vector, tol=args.tol)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(pair_to_json(result.pair), handle, indent=2)
        handle.write("\n")
    _emit(realization_to_json(result))
    return 0


def _cmd_relent(args) -> int:
    pair = pair_from_json(_load_json(args.file))
    _emit(vector_to_json(re_vector(pair)))
    return 0


def _cmd_verify(args) -> int:
    vector = vector_from_json(_load_json(args.vector))
    pair = pair_from_json(_load_json(args.pair))
    report = verify(vector, pair, tol=args.tol)
    _emit(verification_report_to_json(report))
    if report.passed:
        return 0
    _fail(describe_deviation(report))
    return 1


def _cmd_demo(args) -> int:
    demo = DEMOS[args.name]()
    print(render_demo(demo), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--tol", type=float, default=None,
                   help="max allowed |achieved - target| (default: auto)")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("relent", help="relative-entropy vector of a state-pair file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_relent)

    p = sub.add_parser("verify", help="check a state pair against a target vector")
    p.add_argument("vector")
    p.add_argument("pair")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("demo", help="print a built-in construction")
    p.add_argument("name", choices=sorted(DEMOS))
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotInConeError as err:
        _fail(str(err), report=membership_report_to_json(err.report))
        return 1
    except RealizationError as err:
        _fail(str(err))
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as err:
        _fail(str(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
