"""The lemmas judge beyond the one document: a perturbation table.

Each translation of a fixed sample of the free space, over a view with and
without a where clause of its own, is perturbed in four ways (mutation
analysis; DeMillo, Lipton & Sayward, IEEE Computer 1978): drop an atom,
keeping at least one; swap a literal; retarget to a sibling label; drop an
added binding, its variable replaced by the path it was bound to.  Each
perturbed statement is judged as ``xview verify --delta-s`` judges a
hand-written one, on the case's first document, and falls in one of four
classes.  A statement that passes both oracles there but fails a lemma must
be imprecise on some other document of the case's fixed random set; one that
no document shows imprecise is a false alarm of the lemma suite.
"""

from __future__ import annotations

import collections
import dataclasses
import random

from xview import cli
from xview.errors import XviewError
from xview.lang import (
    PathEqString,
    UpdateStatement,
    VarRoot,
    ViewDef,
    parse_update,
    parse_view_def,
    render_update,
)
from xview.translator import Translated, translate
from xview.verifier import verify_translation
from xview.xml_model import DocumentStore, parse_document

from .conftest import FREE_NAMES, free_space, free_space_doc

SAMPLE = 7  # every SAMPLE-th pair of the free space
DOCS = 100  # documents per case: the first judges, the rest look for imprecision
VIEW_WHERE = ' where x/K="1"'
OTHER_LITERAL = {"1": "2", "2": "1"}


def _inlined(side: tuple, var: str, root: str, steps: tuple) -> tuple:
    """An atom side or target over ``var``, rewritten over the variable
    ``var`` was bound below."""
    name, path = side
    return (root, steps + path) if name == var else side


def _perturbations(
    stmt: UpdateStatement, view: ViewDef
) -> list[tuple[str, UpdateStatement]]:
    """The perturbed statements of one translation, each with its kind."""
    conds, target = stmt.conditions, stmt.target
    out = []
    if len(conds) > 1:
        for i in range(len(conds)):
            kept = conds[:i] + conds[i + 1 :]
            out.append(("drop an atom", dataclasses.replace(stmt, conditions=kept)))
    literals = [i for i, atom in enumerate(conds) if isinstance(atom, PathEqString)]
    if literals:
        i = literals[-1]
        swapped = dataclasses.replace(conds[i], value=OTHER_LITERAL[conds[i].value])
        kept = conds[:i] + (swapped,) + conds[i + 1 :]
        out.append(("swap a literal", dataclasses.replace(stmt, conditions=kept)))
    if target.path:
        sibling = next(n for n in FREE_NAMES + "K" if n not in target.path)
        moved = dataclasses.replace(target, path=target.path[:-1] + (sibling,))
        out.append(("retarget to a sibling", dataclasses.replace(stmt, target=moved)))
    added = stmt.bindings[len(view.bindings) :]
    if added and isinstance(added[-1].source.root, VarRoot):
        # a translation's action never deletes a binding it added
        var = added[-1].var
        root, steps = added[-1].source.root.var, added[-1].source.steps

        def inline(atom):
            sides = {"lhs": _inlined(atom.lhs, var, root, steps)}
            if not isinstance(atom, PathEqString):
                sides["rhs"] = _inlined(atom.rhs, var, root, steps)
            return dataclasses.replace(atom, **sides)

        name, path = _inlined((target.var, target.path), var, root, steps)
        dropped = dataclasses.replace(
            stmt,
            bindings=stmt.bindings[:-1],
            conditions=tuple(map(inline, conds)),
            target=dataclasses.replace(target, var=name, path=path),
        )
        out.append(("drop an added binding", dropped))
    return out


def _store(doc: str) -> DocumentStore:
    store = DocumentStore()
    store.add("s", parse_document(doc))
    return store


def _classify(report) -> str:
    if not report.correct:
        return "wrong"
    if not report.minimal:
        return "correct, not minimal"
    if not report.passed:
        return "precise, a lemma fails"
    return "passing"


def test_perturbed_translations_fall_in_pinned_classes_with_no_false_alarm():
    table: collections.Counter = collections.Counter()
    kinds: collections.Counter = collections.Counter()
    raised = cases = 0
    false_alarms = []
    for i, (view_text, update_text, below) in enumerate(free_space()):
        if i % SAMPLE:
            continue
        for where in ("", VIEW_WHERE):
            text = view_text.replace(" return", where + " return")
            view = parse_view_def(text)
            view_update = parse_update(update_text)
            out = translate(view, view_update)
            if not isinstance(out, Translated):
                continue
            cases += 1
            paths = below + [("K",)] if where else below
            docs = [
                free_space_doc(random.Random(f"{i}{where}:{k}"), paths)
                for k in range(DOCS)
            ]
            for kind, stmt in _perturbations(out.statement, view):
                # the case verify --delta-s runs the lemmas under, if any
                case = cli._lemma_case(view, out, stmt)
                try:
                    report = verify_translation(
                        view, view_update, stmt, _store(docs[0]), case
                    )
                except XviewError:  # a retarget onto a text leaf, say
                    raised += 1
                    continue
                verdict = _classify(report)
                table[verdict] += 1
                kinds[kind] += 1
                if verdict == "precise, a lemma fails" and all(
                    verify_translation(view, view_update, stmt, _store(doc)).precise
                    for doc in docs[1:]
                ):
                    false_alarms.append(
                        f"{text}\n{update_text}\n{render_update(stmt)}"
                    )
    assert false_alarms == [], "\n\n".join(false_alarms)
    assert cases == 338
    assert kinds == {
        "drop an atom": 338,
        "swap a literal": 338,
        "retarget to a sibling": 331,
        "drop an added binding": 196,
    }
    assert raised == 7
    assert table == {
        "wrong": 356,
        "correct, not minimal": 37,
        "precise, a lemma fails": 59,
        "passing": 751,
    }
