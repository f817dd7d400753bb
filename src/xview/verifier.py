"""Executable precision oracles for translated updates.

Correctness compares, as ordered value trees, the view evaluated after the
source update against the view instance updated directly.  Minimality is
checked by leave-one-edit-out: if dropping any single recorded edit still
yields a correct result, the translation over-updated the source.  Both
oracles are independent of the translation path they judge: they only
evaluate, apply and compare.  The two update routes are computed once per
verification, and every oracle reads them from that one record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .evaluator import (
    ViewInstance,
    enumerate_bindings,
    eval_condition,
    evaluate_view,
)
from .lang import DeleteBinding, PathEqString, UpdateStatement, ViewDef
from .translator import Case, map_paths
from .updater import (
    Deleted,
    Edit,
    abstract_form,
    apply_update,
    edit_to_json,
    execute_plan,
    plan_update,
    replay_edits,
)
from .xml_model import (
    DocumentStore,
    XmlTree,
    copy_tree,
    locate,
    serialize,
    value_equal,
)


@dataclass
class VerificationReport:
    correct: bool
    view_diff: Optional[dict] = None
    minimal: bool = False
    witness: Optional[Edit] = None
    lemma_checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def precise(self) -> bool:
        return self.correct and self.minimal

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = json.loads(edit_to_json(self.witness))
        return {
            "correct": self.correct,
            "minimal": self.minimal,
            "diff": self.view_diff,
            "witness": witness,
            "lemmas": {name: ok for name, ok in self.lemma_checks},
        }


@dataclass(frozen=True)
class _Routes:
    """One verification's inputs and both update routes, computed once.

    Route A (``via_source``) is view(update(sources)): the source update is
    planned and applied on one identifier-preserving copy of ``store``, whose
    planned target ids (``touched``) and edit log are kept, and the view is
    evaluated on that copy.  Route B (``via_view``) is
    update(view(sources)), applied to a fresh-id copy of ``before``, the
    unmodified evaluation of the view on ``store``; ``store`` itself is never
    mutated.
    """

    view: ViewDef
    view_update: UpdateStatement
    source_update: UpdateStatement
    store: DocumentStore
    before: ViewInstance
    touched: frozenset[int]
    log: list[Edit]
    via_source: ViewInstance
    via_view: ViewInstance


def _compute_routes(
    view: ViewDef,
    view_update: UpdateStatement,
    source_update: UpdateStatement,
    store: DocumentStore,
) -> _Routes:
    updated = store.copy()
    plan = plan_update(source_update, updated)
    touched = frozenset(op.target.node_id for op in plan)
    log = execute_plan(plan)
    via_source = evaluate_view(view, updated)

    before = evaluate_view(view, store)
    via_view = ViewInstance(copy_tree(before.tree), before.tuples)
    apply_update(view_update, via_view)
    return _Routes(
        view,
        view_update,
        source_update,
        store,
        before,
        touched,
        log,
        via_source,
        via_view,
    )


def verify_translation(
    view: ViewDef,
    view_update: UpdateStatement,
    source_update: UpdateStatement,
    store: DocumentStore,
    case: Optional[Case] = None,
) -> VerificationReport:
    """Run both oracles and, on a correct translation of a known case, the
    lemma suite.  ``store`` is left unchanged."""
    routes = _compute_routes(view, view_update, source_update, store)
    correct, diff = check_correctness(routes)
    minimal, witness = False, None
    lemmas: list[tuple[str, bool]] = []
    if correct:
        minimal, witness = check_minimality(routes)
        if case is not None:
            lemmas = run_lemma_suite(routes, case)
    return VerificationReport(correct, diff, minimal, witness, lemmas)


def tree_diff(a: XmlTree, b: XmlTree, path: str = "") -> Optional[dict]:
    """First divergence between two trees, or None when value-equal."""
    here = path + a.label
    if a.label != b.label or a.is_text != b.is_text:
        return {"path": here, "left": serialize(a), "right": serialize(b)}
    if a.is_text:
        if a.text != b.text:
            return {"path": here, "left": serialize(a), "right": serialize(b)}
        return None
    ac, bc = a.children or [], b.children or []
    if len(ac) != len(bc):
        return {"path": here, "left": serialize(a), "right": serialize(b)}
    for i, (x, y) in enumerate(zip(ac, bc)):
        d = tree_diff(x, y, f"{here}[{i}]/")
        if d is not None:
            return d
    return None


def check_correctness(routes: _Routes) -> tuple[bool, Optional[dict]]:
    """Compare the two routes' instances, ordered and value-based."""
    diff = tree_diff(routes.via_source.tree, routes.via_view.tree)
    return diff is None, diff


def check_minimality(routes: _Routes) -> tuple[bool, Optional[Edit]]:
    """Leave-one-edit-out search for a smaller correct translation.

    For every edit in the source update's log, replay the log without it
    on a fresh copy of the store; if the view still matches the directly
    updated instance, that edit was unnecessary and is returned as the
    witness.  An empty log is trivially minimal.
    """
    log = routes.log
    for dropped in range(len(log)):
        variant = routes.store.copy()
        replay_edits(log[:dropped] + log[dropped + 1 :], variant)
        instance = evaluate_view(routes.view, variant)
        if value_equal(instance.tree, routes.via_view.tree):
            return False, log[dropped]
    return True, None


# ----------------------------------------------------------------------
# Lemma suite

def run_lemma_suite(routes: _Routes, case: Case) -> list[tuple[str, bool]]:
    """Concrete per-instance assertions behind the translation proofs.

    L1: within one for-clause tuple, either every target-path tree receives
        the planned action or none does; under a parent step the target
        trees are the parents the step reaches.
    L2: applying the source update does not change how many tuples satisfy
        the view condition (root deletions excepted: there the satisfying
        tuples left are exactly those whose deleted binding survived).
    L3: per satisfying tuple and its wrapper tree, the source-side condition
        trees satisfy the update condition exactly when the view-side ones do.

    The suite runs only on translations already found correct.  Agreement of
    the two routes at the target view path is therefore not checked here: it
    follows from the value equality of the whole instances.
    """
    return [
        ("L1", _lemma1(routes)),
        ("L2", _lemma2(routes, case)),
        ("L3", _lemma3(routes)),
    ]


def _lemma1(routes: _Routes) -> bool:
    source_update, touched = routes.source_update, routes.touched
    target = source_update.target
    tuples = enumerate_bindings(source_update.bindings, routes.store)
    for tup in tuples:
        if isinstance(source_update.action, DeleteBinding):
            ids = {tup[source_update.action.var].node_id}
        elif target.parent_step and target.path:
            # x/M/T/.. reaches the M nodes that have a T child
            ids = {
                n.node_id
                for n in locate(tup[target.var], target.path[:-1])
                if locate(n, target.path[-1:])
            }
        else:
            ids = {n.node_id for n in locate(tup[target.var], target.path)}
        hit = ids & touched
        if hit and hit != ids:
            return False
    return True


def _lemma2(routes: _Routes, case: Case) -> bool:
    before, after = routes.before.tuples, routes.via_source.tuples
    if case is Case.T4:
        var = routes.source_update.action.var
        gone = {e.node_id for e in routes.log if isinstance(e, Deleted)}
        return len(after) == sum(1 for t in before if t[var].node_id not in gone)
    return len(after) == len(before)


def _lemma3(routes: _Routes) -> bool:
    abstract = abstract_form(routes.view_update)
    cond = map_paths(routes.view, abstract).cond
    src_atom = PathEqString((cond.var, cond.gamma + cond.theta), abstract.cond_value)
    # relative to the wrapper node, bound to the variable "w"
    view_atom = PathEqString(("w", abstract.cond_path.steps[2:]), abstract.cond_value)
    instance = routes.before  # never updated: wrapper i belongs to tuple i
    for tup, etree in zip(instance.tuples, instance.tree.children):
        view_hit = eval_condition((view_atom,), {"w": etree})
        if eval_condition((src_atom,), tup) != view_hit:
            return False
    return True
