"""Command-line interface.

Exit codes: 0 for success and true verdicts, 1 for false verdicts (the
certificate goes to standard output), 2 for input errors.  Output is
text by default; ``--format json`` switches every command to a single
JSON document.  ULTRAFOREST_THREADS caps internal parallelism for the
exhaustive audit sweep (default 1, never more than the CPU count; results
are identical at any setting).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import __version__
from .canonical import MODES, are_isometric, are_weakly_similar, canonical_code
from .classify import CLASS_IDS, audit_equivalences, classify
from .core import Space, spectrum, to_plain
from .errors import (
    MissingLeafChild,
    NotUltrametricGenerating,
    ParseError,
    UltrametricError,
)
from .formats import (
    format_rational,
    load_json,
    parse_space,
    space_from_json_obj,
    space_to_csv,
    space_to_json_obj,
    tree_from_json_obj,
    tree_to_dot,
    tree_to_json_obj,
    unrooted_from_json_obj,
    unrooted_to_dot,
    unrooted_to_json_obj,
)
from .gen import enumerate_spaces, random_space
from .hereditary import hereditary_counterexample_search, hereditary_verify
from .tree import build_representing_tree, tree_to_space
from .unrooted import space_from_unrooted, unrooted_from_representing


def _threads(work: int) -> int:
    """Worker processes for ``work`` items: ULTRAFOREST_THREADS, capped by
    the CPU count and by the work itself."""
    raw = os.environ.get("ULTRAFOREST_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"ULTRAFOREST_THREADS must be an integer, got {raw!r}")
    return max(1, min(value, os.cpu_count() or 1, work))


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc.reason} at byte {exc.start}") from exc


def _sniff_kind(obj) -> str:
    if isinstance(obj, dict):
        if "points" in obj and "dist" in obj:
            return "matrix"
        if "vertices" in obj and "edges" in obj:
            return "unrooted"
        if "label" in obj:
            return "tree"
    raise ParseError("cannot determine input kind; pass --from")


_FROM_JSON = {
    "matrix": space_from_json_obj,
    "tree": tree_from_json_obj,
    "unrooted": unrooted_from_json_obj,
}


def _load_input(text: str, kind: str | None):
    """The input's kind (sniffed when None) and its value; JSON text is
    decoded once, and text not starting with "{" is a CSV matrix."""
    if kind in (None, "matrix") and not text.lstrip().startswith("{"):
        return "matrix", parse_space(text, "csv")
    obj = load_json(text)
    kind = kind or _sniff_kind(obj)
    return kind, _FROM_JSON[kind](obj)


class _Output:
    def __init__(self, args):
        self.fmt = getattr(args, "format", "text")
        self.path = getattr(args, "out", None)

    def emit(self, text_lines, json_obj) -> None:
        if self.fmt == "json":
            body = json.dumps(to_plain(json_obj), indent=2) + "\n"
        else:
            body = "\n".join(text_lines) + "\n" if text_lines else ""
        self.write(body)

    def write(self, body: str) -> None:
        if self.path and self.path != "-":
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(body)
        else:
            sys.stdout.write(body)


# ------------------------------------------------------------- commands


def _cmd_validate(args, out: _Output) -> int:
    space = parse_space(_read(args.file))
    sp = spectrum(space)
    out.emit(
        [f"valid: {len(space)} points, spectrum {{{', '.join(map(str, sp))}}}"],
        {"valid": True, "points": len(space), "spectrum": sp},
    )
    return 0


def _cmd_tree(args, out: _Output) -> int:
    space = parse_space(_read(args.file))
    tree = build_representing_tree(space)
    if args.dot:
        out.write(tree_to_dot(tree))
        return 0
    obj = tree_to_json_obj(tree)
    out.emit([json.dumps(obj, indent=2)] if out.fmt == "text" else [], obj)
    return 0


def _cmd_classify(args, out: _Output) -> int:
    space = parse_space(_read(args.file))
    report = classify(space)
    wanted = [args.class_id] if args.class_id else list(CLASS_IDS)
    for cid in wanted:
        if cid not in report.classes:
            raise ParseError(f"unknown class {cid!r}")
    text = out.fmt == "text"
    lines = []
    classes = {}
    for cid in wanted:
        verdict = report.classes[cid]
        if text:
            cert = json.dumps(to_plain(verdict.certificate))
            lines.append(f"{cid:28s} {'yes' if verdict.member else 'no':3s} {cert}")
        classes[cid] = {"member": verdict.member, "certificate": verdict.certificate}
    obj = {
        "points": report.points,
        "spectrum": report.spectrum,
        "classes": classes,
        "extras": report.extras,
    }
    if text and not args.class_id:
        lines.append("extras " + json.dumps(to_plain(report.extras)))
    out.emit(lines, obj)
    return 0


def _audit_one(space: Space):
    return [
        {"check": d.check, "details": to_plain(d.details)}
        for d in audit_equivalences(space)
    ]


def _cmd_audit(args, out: _Output) -> int:
    if args.exhaustive:
        if args.max_n < 2:
            raise ParseError("max_n must be at least 2")
        spaces = []
        for n in range(2, args.max_n + 1):
            spaces.extend(enumerate_spaces(n))
        threads = _threads(len(spaces))
        if threads > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=threads) as pool:
                per_space = list(pool.map(_audit_one, spaces))
        else:
            per_space = [_audit_one(s) for s in spaces]
        flat = []
        for space, found in zip(spaces, per_space):
            for item in found:
                flat.append({"points": list(space.points), **item})
        lines = [
            f"audited {len(spaces)} spaces (2..{args.max_n} points): "
            f"{len(flat)} discrepancies"
        ]
        lines += [json.dumps(item) for item in flat]
        out.emit(
            lines,
            {"spaces": len(spaces), "max_n": args.max_n, "discrepancies": flat},
        )
        return 0 if not flat else 1
    if not args.file:
        raise ParseError("audit needs a space file or --exhaustive")
    space = parse_space(_read(args.file))
    found = _audit_one(space)
    lines = [f"{len(found)} discrepancies"]
    lines += [json.dumps(item) for item in found]
    out.emit(lines, {"discrepancies": found})
    return 0 if not found else 1


def _cmd_isometric(args, out: _Output) -> int:
    x = parse_space(_read(args.file_a))
    y = parse_space(_read(args.file_b))
    verdict = are_isometric(x, y)
    out.emit([f"isometric: {str(verdict).lower()}"], {"isometric": verdict})
    return 0 if verdict else 1


def _cmd_weaksim(args, out: _Output) -> int:
    x = parse_space(_read(args.file_a))
    y = parse_space(_read(args.file_b))
    scaling = are_weakly_similar(x, y)
    if scaling is None:
        out.emit(["weakly similar: false"], {"weakly_similar": False})
        return 1
    pairs = sorted(scaling.items())
    lines = ["weakly similar: true"] + [
        f"  {format_rational(a)} -> {format_rational(b)}" for a, b in pairs
    ]
    out.emit(
        lines,
        {
            "weakly_similar": True,
            "scaling": {format_rational(a): format_rational(b) for a, b in pairs},
        },
    )
    return 0


def _cmd_convert(args, out: _Output) -> int:
    text = _read(args.file)
    kind, value = _load_input(text, args.src_kind)
    target = args.dst_kind

    # walk the chain from the input's kind to the target (only a tree bound
    # for a matrix steps back); names bind per call, so patches apply
    chain = ("unrooted", "matrix", "tree", "unrooted")
    steps = (space_from_unrooted, build_representing_tree, unrooted_from_representing)
    try:
        if kind == "tree" and target == "matrix":
            kind, value = "matrix", tree_to_space(value)
        start = chain.index(kind)
        for step in steps[start : chain.index(target, start)]:
            value = step(value)
    except (MissingLeafChild, NotUltrametricGenerating) as exc:
        out.emit(
            [f"not convertible: {exc}"],
            {"convertible": False, "reason": type(exc).__name__, "message": str(exc)},
        )
        return 1

    if target == "matrix":
        if out.fmt == "json":
            out.emit([], space_to_json_obj(value))
        else:
            out.write(space_to_csv(value))
    elif args.dot:
        out.write((tree_to_dot if target == "tree" else unrooted_to_dot)(value))
    else:
        obj = (tree_to_json_obj if target == "tree" else unrooted_to_json_obj)(value)
        out.emit([json.dumps(obj, indent=2)] if out.fmt == "text" else [], obj)
    return 0


def _cmd_hereditary(args, out: _Output) -> int:
    if args.action == "verify":
        if args.budget is not None:
            raise ParseError("--budget applies to counterexample only")
        verdict = hereditary_verify(args.class_id, args.max_n)
        if verdict:
            out.emit(
                [f"hereditary: true (all spaces up to {args.max_n} points)"],
                {"class": args.class_id, "hereditary": True, "max_n": args.max_n},
            )
            return 0
        w = verdict.witness
        obj = {
            "class": args.class_id,
            "hereditary": False,
            "max_n": args.max_n,
            "space": space_to_json_obj(w["space"]),
            "deleted": w["deleted"],
        }
        out.emit(
            [
                "hereditary: false",
                f"member space: {','.join(w['space'].points)}",
                f"delete point: {w['deleted']}",
            ],
            obj,
        )
        return 1
    found = hereditary_counterexample_search(args.class_id, args.max_n, args.budget)
    if found is None:
        out.emit(
            [f"no counterexample up to {args.max_n} points"],
            {"class": args.class_id, "counterexample": None, "max_n": args.max_n},
        )
        return 0
    space, subset = found
    obj = {
        "class": args.class_id,
        "counterexample": {
            "space": space_to_json_obj(space),
            "subset": sorted(subset),
        },
    }
    out.emit(
        [
            "counterexample found",
            f"member space: {','.join(space.points)}",
            f"violating subset: {','.join(sorted(subset))}",
        ],
        obj,
    )
    return 1


def _cmd_generate(args, out: _Output) -> int:
    if args.exhaustive:
        spaces = enumerate_spaces(args.n)
    else:
        spaces = [random_space(args.n, args.seed)]
    body = "".join(json.dumps(space_to_json_obj(s)) + "\n" for s in spaces)
    out.write(body)
    return 0


def _cmd_fingerprint(args, out: _Output) -> int:
    rows = []
    for path in args.files:
        space = parse_space(_read(path))
        code = canonical_code(build_representing_tree(space), args.mode)
        rows.append({"file": path, "mode": args.mode, "code": code})
    out.emit([row["code"] for row in rows], {"fingerprints": rows})
    return 0


# --------------------------------------------------------------- parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: each
    ``parse_args`` makes a fresh namespace, and nothing here mutates it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ultraforest",
        description="Finite ultrametric spaces: representing trees, "
        "classification, and theorem audits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a distance matrix")
    p.add_argument("file", help="space file (CSV or JSON, - for stdin)")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("tree", parents=[common], help="build the representing tree")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("classify", parents=[common], help="run the class catalog")
    p.add_argument("file")
    p.add_argument("--class", dest="class_id", help="report one class only")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("audit", parents=[common], help="audit characterizations")
    p.add_argument("file", nargs="?", help="audit one space")
    p.add_argument(
        "--exhaustive", action="store_true", help="audit every enumerated space"
    )
    p.add_argument("--max-n", type=int, default=6, help="largest size to enumerate")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("isometric", parents=[common], help="decide isometry")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_isometric)

    p = sub.add_parser("weaksim", parents=[common], help="decide weak similarity")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_weaksim)

    p = sub.add_parser(
        "convert", parents=[common], help="convert between matrix, tree, unrooted"
    )
    p.add_argument("file")
    p.add_argument(
        "--from",
        dest="src_kind",
        choices=("matrix", "tree", "unrooted"),
        help="input kind (sniffed when omitted)",
    )
    p.add_argument(
        "--to", dest="dst_kind", required=True, choices=("matrix", "tree", "unrooted")
    )
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT for trees")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "hereditary", parents=[common], help="subspace closure of a class"
    )
    p.add_argument("action", choices=("verify", "counterexample"))
    p.add_argument("class_id", metavar="class", choices=CLASS_IDS)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_hereditary)

    p = sub.add_parser("generate", parents=[common], help="emit spaces as JSON lines")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="all spaces of this size up to weak similarity",
    )
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser(
        "fingerprint", parents=[common], help="canonical code per input space"
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", choices=MODES, default="labeled")
    p.set_defaults(fn=_cmd_fingerprint)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = _Output(args)
    try:
        return args.fn(args, out)
    except (UltrametricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
