"""Command-line front end: eval, translate, apply, verify, fuzz.

Exit codes: 0 success, 2 untranslatable update, 3 parse error (a malformed
command line included), 4 evaluation or I/O error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .errors import (
    LevelMismatch,
    MalformedXml,
    QuerySyntaxError,
    UnsupportedFeature,
    XviewError,
)
from .evaluator import evaluate_view
from .fuzzgen import random_case
from .lang import parse_update, parse_view_def, render_update
from .translator import Rejected, rejection_to_json, translate
from .updater import apply_update, edit_to_json
from .verifier import verify_translation
from .xml_model import DocumentStore, parse_document, serialize

EXIT_OK = 0
EXIT_UNTRANSLATABLE = 2
EXIT_PARSE = 3
EXIT_EVAL = 4
EXIT_VERIFY = 5

_PARSE_ERRORS = (QuerySyntaxError, MalformedXml, UnsupportedFeature)


def _load_store(pairs: list[str]) -> DocumentStore:
    store = DocumentStore()
    for pair in pairs or []:
        name, sep, path = pair.partition("=")
        if not sep:
            raise ValueError(f"--doc takes name=path bindings, got {pair!r}")
        store.add(name, parse_document(Path(path).read_text(encoding="utf-8")))
    return store


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_eval(args) -> int:
    view = parse_view_def(Path(args.view).read_text(encoding="utf-8"))
    store = _load_store(args.doc)
    instance = evaluate_view(view, store)
    rendered = serialize(instance.tree)
    if args.format == "json":
        _emit(args, json.dumps({"view": rendered}))
    else:
        _emit(args, rendered)
    return EXIT_OK


def cmd_translate(args) -> int:
    view = parse_view_def(Path(args.view).read_text(encoding="utf-8"))
    update = parse_update(Path(args.update).read_text(encoding="utf-8"))
    outcome = translate(view, update)
    if isinstance(outcome, Rejected):
        _emit(args, json.dumps(rejection_to_json(outcome)))
        return EXIT_UNTRANSLATABLE
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "translatable": True,
                    "case": outcome.case.value,
                    "delta_s": render_update(outcome.statement),
                }
            ),
        )
    else:
        _emit(args, render_update(outcome.statement))
    return EXIT_OK


def cmd_apply(args) -> int:
    update = parse_update(Path(args.update).read_text(encoding="utf-8"))
    if update.level != "source":
        raise LevelMismatch("apply expects a source-level update")
    store = _load_store(args.doc)
    log = apply_update(update, store)
    edits = [edit_to_json(e) for e in log]
    if args.edits:
        Path(args.edits).write_text(
            "".join(line + "\n" for line in edits), encoding="utf-8"
        )
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "docs": {name: serialize(t) for name, t in store.docs.items()},
                    "edits": [json.loads(line) for line in edits],
                }
            ),
        )
    else:
        lines = [f"# doc {name}\n{serialize(tree)}" for name, tree in store.docs.items()]
        lines.append("# edits")
        lines.extend(edits)
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    view = parse_view_def(Path(args.view).read_text(encoding="utf-8"))
    view_update = parse_update(Path(args.update).read_text(encoding="utf-8"))
    store = _load_store(args.doc)

    case = None
    if args.delta_s:
        source_update = parse_update(Path(args.delta_s).read_text(encoding="utf-8"))
        if source_update.level != "source":
            raise LevelMismatch("--delta-s expects a source-level update")
    else:
        outcome = translate(view, view_update)
        if isinstance(outcome, Rejected):
            _emit(args, json.dumps(rejection_to_json(outcome)))
            return EXIT_UNTRANSLATABLE
        source_update, case = outcome.statement, outcome.case

    report = verify_translation(view, view_update, source_update, store, case)
    payload = report.to_json()
    if case is not None:
        payload["case"] = case.value
    if args.format == "json":
        _emit(args, json.dumps(payload))
    else:
        lines = [
            f"correct: {str(report.correct).lower()}",
            f"minimal: {str(report.minimal).lower()}",
        ]
        if case is not None:
            lines.append(f"case: {case.value}")
        if report.view_diff:
            lines.append(f"diff: {json.dumps(report.view_diff)}")
        if report.witness:
            lines.append(f"witness: {edit_to_json(report.witness)}")
        if report.lemma_checks:
            lines.append(
                "lemmas: "
                + " ".join(
                    f"{n}={'pass' if ok else 'FAIL'}" for n, ok in report.lemma_checks
                )
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    histogram: dict[str, int] = {}
    failures = 0
    for _ in range(args.count):
        case = random_case(rng)
        outcome = translate(case.view, case.update)
        if isinstance(outcome, Rejected):
            key = f"Rejected({outcome.reason.value})"
            expected = f"reject:{outcome.reason.value}"
            if case.expect != expected:
                failures += 1
        else:
            key = outcome.case.value
            if case.expect != outcome.case.value:
                failures += 1
            else:
                report = verify_translation(
                    case.view, case.update, outcome.statement, case.store, outcome.case
                )
                if not report.passed:
                    failures += 1
        histogram[key] = histogram.get(key, 0) + 1

    lines = []
    for key in sorted(histogram, key=lambda k: (k.startswith("Rejected"), k)):
        lines.append(f"{key}: {histogram[key]}")
    lines.append(f"failures: {failures}")
    _emit(args, "\n".join(lines))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the parse-error code
    rather than argparse's 2, which here means an untranslatable update."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xview",
        description="Translate updates on virtual XML views into source updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("eval", help="materialize a view against source documents")
    p.add_argument("--view", required=True)
    p.add_argument("--doc", action="append", default=[], metavar="NAME=PATH")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("translate", help="rewrite a view update to a source update")
    p.add_argument("--view", required=True)
    p.add_argument("--update", required=True)
    common(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("apply", help="apply a source-level update to documents")
    p.add_argument("--update", required=True)
    p.add_argument("--doc", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--edits", help="also write the edit log to this file")
    common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="translate, apply both ways, and compare")
    p.add_argument("--view", required=True)
    p.add_argument("--update", required=True)
    p.add_argument("--doc", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--delta-s", dest="delta_s", help="use this source update instead")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="run seeded random translation round trips")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_count, required=True)
    common(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (XviewError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return EXIT_EVAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
