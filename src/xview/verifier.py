"""Executable precision oracles for translated updates.

Correctness compares, as ordered value trees, the view evaluated after the
source update against the view instance updated directly.  Minimality is
checked by leave-one-edit-out: if dropping any single recorded edit still
yields a correct result, the translation over-updated the source.  It probes
on one working store, route A's updated one: each edit is undone in place,
the view is compared with the directly updated instance without being
built, and the edit is redone.  Both oracles are independent of the
translation path they judge: they only evaluate, apply and compare.  The
two update routes are computed once per verification, and every oracle
reads them from that one record.
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
from .translator import Case
from .updater import (
    Deleted,
    Edit,
    Inserted,
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
    iter_nodes,
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
    planned and applied on one identifier-preserving copy of ``store``
    (``updated``), whose planned target ids (``touched``) and edit log are
    kept, and the view is evaluated on that copy.  Route B (``via_view``) is
    update(view(sources)), applied to a fresh-id copy of ``before``, the
    unmodified evaluation of the view on ``store``; ``store`` itself is never
    mutated.  The minimality check probes on ``updated`` and leaves it
    value-equal to route A's state.
    """

    view: ViewDef
    view_update: UpdateStatement
    source_update: UpdateStatement
    store: DocumentStore
    before: ViewInstance
    updated: DocumentStore
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
        updated,
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

    Probes on route A's updated store: for every edit in the source update's
    log, in log order, undo it in place, compare the view on that store with
    the directly updated instance, and redo it.  If the view still matches,
    that edit was unnecessary and is returned as the witness.  Each probe
    sees exactly the store a replay of the log without that edit would
    give, and the store is back in route A's state afterwards, whatever the
    outcome.  An empty log is trivially minimal.
    """
    work = routes.updated
    nodes = _nodes_by_id(work)
    originals = _nodes_by_id(routes.store)
    for edit in routes.log:
        _undo(edit, nodes[edit.parent_id], originals)
        try:
            same = _view_matches(routes.view, work, routes.via_view.tree)
        finally:
            replay_edits([edit], work)
        if same:
            return False, edit
    return True, None


def _nodes_by_id(store: DocumentStore) -> dict[int, XmlTree]:
    return {n.node_id: n for root in store.docs.values() for n in iter_nodes(root)}


def _undo(edit: Edit, parent: XmlTree, originals: dict[int, XmlTree]) -> None:
    """Revert one logged edit on its parent in route A's store.

    An insertion appended last, and a log holds at most one per parent (the
    planner collapses applications on the target), so its undo drops the
    last child.  A deletion puts back an id-preserving copy of the original
    node, after the original siblings that precede it and are still there.
    """
    children = parent.children or []
    if isinstance(edit, Inserted):
        if not children or not value_equal(children[-1], edit.tree):
            raise RuntimeError(
                f"node {edit.parent_id}'s last child is not the logged insertion"
            )
        parent.children = children[:-1]
        return
    siblings = originals[edit.parent_id].children or []
    at = next(i for i, c in enumerate(siblings) if c.node_id == edit.node_id)
    before = {c.node_id for c in siblings[:at]}
    pos = sum(1 for c in children if c.node_id in before)
    restored = copy_tree(siblings[at], preserve_ids=True)
    parent.children = children[:pos] + [restored] + children[pos:]


def _view_matches(view: ViewDef, store: DocumentStore, expected: XmlTree) -> bool:
    """``value_equal(evaluate_view(view, store).tree, expected)``, decided
    without building the view: each satisfying tuple's located return trees
    are compared with the matching wrapper's children, up to the first
    mismatch."""
    if expected.label != view.view_root or expected.is_text:
        return False
    wrappers = expected.children or []
    row = 0
    for tup in enumerate_bindings(view.bindings, store):
        if not eval_condition(view.conditions, tup):
            continue
        if row == len(wrappers):
            return False
        wrapper = wrappers[row]
        row += 1
        if wrapper.label != view.wrapper or wrapper.is_text:
            return False
        found = [n for ret in view.returns for n in locate(tup[ret.var], ret.gamma)]
        kids = wrapper.children or []
        if len(found) != len(kids) or not all(map(value_equal, found, kids)):
            return False
    return row == len(wrappers)


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
    L3: per satisfying tuple and its wrapper tree, the source update's
        where clause, as emitted, holds exactly when the view update's
        condition holds on the wrapper tree.

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
    # relative to the wrapper node, bound to the variable "w"
    view_atom = PathEqString(("w", abstract.cond_path.steps[2:]), abstract.cond_value)
    # a translated statement keeps the view's for-clause, so each view tuple
    # binds every variable its where clause reads
    source_conditions = routes.source_update.conditions
    instance = routes.before  # never updated: wrapper i belongs to tuple i
    for tup, etree in zip(instance.tuples, instance.tree.children):
        view_hit = eval_condition((view_atom,), {"w": etree})
        if eval_condition(source_conditions, tup) != view_hit:
            return False
    return True
