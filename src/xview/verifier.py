"""Executable precision oracles for translated updates.

Correctness compares, as ordered value trees, the view evaluated after the
source update against the view instance updated directly.  Minimality is
checked by leave-one-edit-out: if dropping any single recorded edit still
yields a correct result, the translation over-updated the source.  It probes
on the sources in route A's state: each edit is undone in place, the view is
checked against the directly updated instance, and the edit is redone.  A
probe re-checks only the tuples the undone edit reaches, read off an index
of that store and view built once per verification, so a verification
costs a few evaluations, not one per edit; route A's view is read off the
same index, whose probe-only parts are built only when there is an edit.
An undone deletion puts back the logged subtree itself at a place read off
its parent's child list before route A's plan ran.  Both
oracles are independent of the translation path they judge: they only
evaluate, apply and compare.  The two update routes are computed once per
verification, and every oracle reads them from that one record.

A verification copies neither the store nor a view, and copies a row only
before an edit could reach inside it.  Route B updates the instance
evaluated on the sources over their own, uncopied rows, after copying the
rows of the wrappers that hold an edit parent of either plan or one of its
ancestors (copy on write, as in path copying).  Route A applies the
source update to the sources themselves and reads its view off the probe
index, as wrappers over the shown tuples' uncopied rows; once correctness
and minimality are judged, every edited parent gets back the very child
list it held, and the lemma suite reads the restored sources.  The
put-back is exact because execution and insertion always give a parent a
new list, and the probes' in-place undo and redo touch only those new
lists.  Rows the two routes share are the same objects, so comparing them
costs nothing (``value_equal``).  L3 builds no wrapper either: route B
tests the view update's condition on each wrapper it evaluated before the
view update edits them, and L3 reads those flags.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .evaluator import (
    ConditionTest,
    ForTuple,
    ViewInstance,
    bind_level,
    binding_scope,
    condition_test,
    enumerate_bindings,
    evaluate_view,
    row_trees,
    view_tree,
)
from .lang import (
    DeleteBinding,
    PathEqString,
    UpdateStatement,
    ViewDef,
)
from .translator import Case
from .updater import (
    Deleted,
    Edit,
    Inserted,
    PlannedOp,
    _deletions,
    abstract_form,
    check_level,
    edit_to_json,
    execute_plan,
    plan_update,
    replay_edits,
    target_trees,
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
    witness: Optional[Edit] = None  # a Deleted one holds the source's own subtree
    lemma_checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def precise(self) -> bool:
        return self.correct and self.minimal

    @property
    def passed(self) -> bool:
        """The verdict: precise, and every lemma that ran held."""
        return self.precise and all(ok for _name, ok in self.lemma_checks)

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
    planned and applied on ``store`` itself, whose planned target ids
    (``touched``), edit log and deleted children's restore points
    (``restore``, see ``_restore_points``) are kept, and the view on the
    updated store is read off ``index`` as wrappers over uncopied rows.
    Route B (``via_view``) is update(view(sources)): the view update is
    applied to the evaluation of the view on the sources, which edits its
    tree but not its tuples, so those stay the view's tuples on the
    sources.  Its wrappers hold the sources' own row trees, except those
    that ``_compute_routes`` copied because they hold an edit parent of
    either plan or one of its ancestors; so a row tree both routes show
    unedited is one object.  ``view_holds[i]`` says whether the view
    update's condition atom holds on the i-th wrapper of that evaluation,
    tested before the update edits it (``_condition_flags``).  The routes
    are valid while ``_compute_routes`` holds ``store`` in route A's state;
    the minimality check probes there and leaves it holding the same nodes
    as before.  Afterwards ``store`` holds the sources again, and
    ``via_source``'s tuples, ``via_view`` and ``view_holds`` still read as
    computed.
    """

    view: ViewDef
    view_update: UpdateStatement
    source_update: UpdateStatement
    store: DocumentStore
    touched: frozenset[int]
    log: list[Edit]
    restore: dict[int, int]
    via_source: ViewInstance
    via_view: ViewInstance
    view_holds: list[bool]
    index: _ProbeIndex


@contextlib.contextmanager
def _compute_routes(
    view: ViewDef,
    view_update: UpdateStatement,
    source_update: UpdateStatement,
    store: DocumentStore,
) -> Iterator[_Routes]:
    """Compute both routes and hold ``store`` in route A's state while the
    body runs; on exit, even by an exception, it holds the sources again,
    node for node and child list for child list.

    Route B's instance is evaluated over the sources' own rows, which are
    copied (copy on write, ``_copy_rows``) for the source plan, then for the
    view update's plan.  If that plan reaches a wrapper still shared, the
    view update is planned once more over the copies, which reaches the
    same wrappers, since copies change no value: planning collapses
    applications by node id, so one source subtree shown in two edited
    wrappers is two operations only once each wrapper has its own copy.
    Every other row stays shared, and no edit reaches it.  The copies and
    the probes read one ancestor lookup (``_ancestry``) of the sources.

    Every step that can fail runs before the first edit lands: the source
    update's plan, then the view's evaluation, then the view update's plan,
    whose level is checked before anything else reads the view update.
    """
    plan = plan_update(source_update, store)
    via_view = evaluate_view(view, store, copy_rows=False)
    check_level(view_update, via_view)
    view_holds = _condition_flags(view_update, via_view)
    chain, copied = _ancestry(store), set()
    _copy_rows(plan, via_view, chain, copied)
    view_plan = plan_update(view_update, via_view)
    if _copy_rows(view_plan, via_view, chain, copied):
        view_plan = plan_update(view_update, via_view)
    execute_plan(view_plan)
    touched = frozenset(op.target.node_id for op in plan)
    restore = _restore_points(plan)
    with _executed(plan) as log:
        index = _ProbeIndex(view, store, plan, chain)
        tuples = list(itertools.compress(index.tuples, index.shown))
        yield _Routes(
            view,
            view_update,
            source_update,
            store,
            touched,
            log,
            restore,
            ViewInstance(view_tree(view, tuples, copy_rows=False), tuples),
            via_view,
            view_holds,
            index,
        )


# chain(node): the node, then its ancestors, nearest first
Chain = Callable[[XmlTree], list[XmlTree]]


def _ancestry(store: DocumentStore) -> Chain:
    """``chain`` over ``store``; a node the store does not hold is its own
    chain.  The child-to-parent map is built by one walk of the store, at
    the first node asked about that is not a document root, so a verify
    whose edits all land under roots walks nothing.  A statement's edits
    never change its edit parents' ancestors, so the map stays valid for
    them while the edits run and are undone."""
    roots = {id(root) for root in store.docs.values()}
    parents: dict[int, XmlTree] = {}
    walked = False

    def chain(node: XmlTree) -> list[XmlTree]:
        nonlocal walked
        if not walked and id(node) not in roots:
            walked = True
            for root in store.docs.values():
                for above in iter_nodes(root):
                    for child in above.children or ():
                        parents[child.node_id] = above
        out = [node]
        while out[-1].node_id in parents:
            out.append(parents[out[-1].node_id])
        return out

    return chain


def _copy_rows(
    plan: list[PlannedOp], instance: ViewInstance, chain: Chain, copied: set[int]
) -> bool:
    """Copy the rows of each wrapper not in ``copied`` that has a row tree
    on the chain of a plan's edit parent, add it to ``copied``, and return
    whether any was copied.  A parent that is the instance's root or a
    wrapper is skipped: the instance owns those lists.  A copy has fresh
    ids, so ``chain`` gives a parent inside it no ancestor."""
    wrappers = instance.tree.children or []
    owned = {id(instance.tree), *map(id, wrappers)}
    reached = {
        node.node_id
        for op in plan
        if op.edits and id(op.parent) not in owned
        for node in chain(op.parent)
    }
    fresh = [
        i
        for i, wrapper in enumerate(wrappers)
        if reached and i not in copied
        and any(t.node_id in reached for t in wrapper.children)
    ]
    for i in fresh:
        wrappers[i].children = [copy_tree(t) for t in wrappers[i].children]
    copied.update(fresh)
    return bool(fresh)


@contextlib.contextmanager
def _executed(plan: list[PlannedOp]) -> Iterator[list[Edit]]:
    """Execute a plan and yield its edit log; on exit, put back every
    planned parent's child list, the very list object it held before.

    Execution never edits a parent's list in place but gives it a new one,
    so the lists put back still hold exactly the children they held.
    """
    lists = {op.parent.node_id: (op.parent, op.parent.children) for op in plan}
    try:
        yield execute_plan(plan)
    finally:
        for parent, children in lists.values():
            parent.children = children


def _condition_flags(
    view_update: UpdateStatement, instance: ViewInstance
) -> list[bool]:
    """Per wrapper of an instance the update has not edited yet, whether the
    view update's condition atom holds on it, read relative to the wrapper:
    ``w/<the condition path below the wrapper step>``."""
    abstract = abstract_form(view_update)
    # relative to the wrapper node, bound to the variable "w"
    atom = PathEqString(("w", abstract.cond_path.steps[2:]), abstract.cond_value)
    holds = condition_test((atom,), ())
    return [holds({"w": wrapper}) for wrapper in instance.tree.children or ()]


def verify_translation(
    view: ViewDef,
    view_update: UpdateStatement,
    source_update: UpdateStatement,
    store: DocumentStore,
    case: Optional[Case] = None,
) -> VerificationReport:
    """Run both oracles and, on a correct translation of a known case, the
    lemma suite.

    The verification edits ``store`` while it runs, so it needs exclusive
    access to it; afterwards ``store`` holds the very same node and child
    list objects as before, even when a check raises.  A ``Deleted``
    witness's tree is the source's own subtree, back in ``store``."""
    with _compute_routes(view, view_update, source_update, store) as routes:
        correct, diff = check_correctness(routes)
        minimal, witness = check_minimality(routes) if correct else (False, None)
    lemmas: list[tuple[str, bool]] = []
    if correct and case is not None:
        lemmas = run_lemma_suite(routes, case)
    return VerificationReport(correct, diff, minimal, witness, lemmas)


def tree_diff(a: XmlTree, b: XmlTree) -> Optional[dict]:
    """First divergence between two trees, or None when ``value_equal``.

    One lockstep preorder walk over node pairs, skipping a pair whose two
    sides are the same object: the first pair whose labels, texts or child
    counts differ is reported, with the left tree's path to it
    (``v[0]/e[1]/B``).  The walk keeps a stack of child-pair iterators, one
    per open pair, and the path is read off the pairs they last gave.
    """
    stack: list[Iterator[tuple[int, tuple[XmlTree, XmlTree]]]] = []
    trail: list = []  # per open pair, the child pair its iterator gave last
    x, y = a, b
    while True:
        if x is not y:
            xc, yc = x.children, y.children
            # equal texts also mean the same content kind (see value_equal)
            if x.label != y.label or x.text != y.text or (
                xc is not None and len(xc) != len(yc)
            ):
                path = a.label + "".join(f"[{i}]/{p[0].label}" for i, p in trail)
                return {"path": path, "left": serialize(x), "right": serialize(y)}
            if xc:
                stack.append(enumerate(zip(xc, yc)))
                trail.append(None)  # set to its first child pair below
        while stack:
            step = next(stack[-1], None)
            if step is not None:
                break
            stack.pop()
            trail.pop()
        else:
            return None
        trail[-1] = step
        x, y = step[1]


def check_correctness(routes: _Routes) -> tuple[bool, Optional[dict]]:
    """Compare the two routes' instances, ordered and value-based."""
    diff = tree_diff(routes.via_source.tree, routes.via_view.tree)
    return diff is None, diff


def check_minimality(routes: _Routes) -> tuple[bool, Optional[Edit]]:
    """Leave-one-edit-out search for a smaller correct translation.

    Probes on ``routes.store`` in route A's state, so it runs inside
    ``_compute_routes``: for every edit in the source update's log, in log
    order, undo it in place, check whether the view on that store still
    equals the directly updated instance, and redo it.  If it does, that
    edit was unnecessary and is returned as the witness.  Each probe sees
    exactly the store a replay of the log without that edit would give, and
    the store holds the same nodes afterwards, whatever the outcome.  The
    undo and the redo edit only child lists that route A's execution gave
    its parents, never a list the sources held.

    The check runs only on correct translations, so route A's view equals
    the directly updated instance, and a probe matches exactly when undoing
    its edit leaves route A's view unchanged.  An undo changes one parent's
    child list, so a probe re-checks only the tuples that reach that parent
    (read off ``routes.index``, as route A's view was), not the whole view.
    The parent is read off the plan, and the redo replays the edit onto a
    store holding just that parent, so finding the parent reads one node.
    An empty log is trivially minimal, and the index's probe-only parts are
    built only when there is an edit.
    """
    wrappers = routes.via_view.tree.children or []
    if routes.log:
        routes.index.prepare_probes()
    for edit in routes.log:
        parent = routes.index.edit_parents[edit.parent_id]
        moved = _undo(edit, parent, routes.restore)
        try:
            same = routes.index.unchanged_without(edit, parent, moved, wrappers)
        finally:
            redo = DocumentStore()
            redo.add("parent", parent)
            replay_edits([edit], redo)
        if isinstance(edit, Inserted):
            # the redo appended a fresh-id copy: keep the indexed node
            parent.children[-1] = moved
        if same:
            return False, edit
    return True, None


def _restore_points(plan: list[PlannedOp]) -> dict[int, int]:
    """Per child the plan deletes, its place among its parent's children
    with every other deletion of the plan applied: the number of siblings
    before it that stay.

    Read off the parents' child lists before the plan runs, visiting only
    the parents of deletions; a plan without deletions reads nothing.
    """
    parents, gone = _deletions(plan)
    points: dict[int, int] = {}
    for parent in parents:
        kept = 0
        for child in parent.children or ():
            if child.node_id in gone:
                points[child.node_id] = kept
            else:
                kept += 1
    return points


def _undo(edit: Edit, parent: XmlTree, restore: dict[int, int]) -> XmlTree:
    """Revert one logged edit on its parent in route A's state, and return
    the child it removed or put back.

    An insertion appended last, and a log holds at most one per parent (the
    planner collapses applications on the target), so its undo drops the
    last child.  A deletion puts the logged subtree itself back, in place,
    at its restore point; the redo takes that same node out again.
    """
    children = parent.children or []
    if isinstance(edit, Inserted):
        if not children or not value_equal(children[-1], edit.tree):
            raise RuntimeError(
                f"node {edit.parent_id}'s last child is not the logged insertion"
            )
        parent.children = children[:-1]
        return children[-1]
    parent.children.insert(restore[edit.node_id], edit.tree)
    return edit.tree


# A tuple's re-checked outcome: its place in tuple order, the number of rows
# shown before that place, whether it showed a row, and the trees of the row
# it shows with the edit undone (None if it shows none).
_Change = tuple[tuple, int, bool, Optional[list[XmlTree]]]


class _ProbeIndex:
    """Route A's store and view, indexed so that a probe re-checks only the
    tuples its undone edit reaches.

    Built with route A's view, on the store with every edit applied: each
    binding level's partial tuples, and every enumerated tuple with its
    condition flag.  ``prepare_probes`` adds what only probes read, so a
    verification with nothing to probe builds none of it: the plan's edit
    parents by id; the partials keyed by the node their level's path is
    evaluated from; and each tuple's row number and the ids of the nodes it
    binds.  Ancestors are read off ``chain``, so the index walks no store.
    Undoing an edit changes one parent P's child list.  Only three sets of
    tuples can then differ, and a probe re-evaluates those:

    - tuples that appear because a binding path runs through P to a
      restored child (the indexed partials, extended through that child and
      through the later bindings);
    - indexed tuples that bind a node of an insertion that was removed;
    - surviving tuples that bind P or one of its ancestors, the only nodes
      whose subtrees changed.

    Every other tuple keeps its condition result and its row.
    """

    def __init__(
        self, view: ViewDef, store: DocumentStore, plan: list[PlannedOp], chain: Chain
    ) -> None:
        self.view, self.store, self.plan, self.chain = view, store, plan, chain
        # levels[i]: the partial tuples binding i extends
        self.levels: list[list[ForTuple]] = [[{}]]
        for binding in view.bindings:
            self.levels.append(bind_level(binding, self.levels[-1], store))
        self.tuples = self.levels[-1]
        holds = condition_test(view.conditions, view.bindings)
        self.shown = [holds(t) for t in self.tuples]

    def prepare_probes(self) -> None:
        """Build the parts only probes read, on the store in route A's state,
        as the index was built on it; this walks no store."""
        self.edit_parents = {op.parent.node_id: op.parent for op in self.plan}
        # (level, context id) -> partial tuples; level -> path steps
        self.partials: dict[tuple[int, int], list[ForTuple]] = {}
        self.steps: dict[int, tuple[str, ...]] = {}
        for i, (binding, level) in enumerate(zip(self.view.bindings, self.levels)):
            if level:
                context, self.steps[i] = binding_scope(binding, self.store)
                for partial in level:
                    key = (i, context(partial).node_id)
                    self.partials.setdefault(key, []).append(partial)
        # rows_before[t]: rows shown by the tuples before t (t's row number)
        self.rows_before = list(itertools.accumulate(self.shown, initial=0))
        self.binders: dict[int, list[int]] = {}
        for t, tup in enumerate(self.tuples):
            for node in tup.values():
                self.binders.setdefault(node.node_id, []).append(t)

    def unchanged_without(
        self, edit: Edit, parent: XmlTree, moved: XmlTree, wrappers: list[XmlTree]
    ) -> bool:
        """Whether the view on the store, with ``edit`` undone, still has
        exactly the rows ``wrappers``: those of the view with it applied.
        ``moved`` is the child of ``parent`` the undo put back or removed.

        The answer is exact: if the row count holds while rows appear or
        go, every row that moves is compared with the row in its new place."""
        chain = self.chain(parent)
        hit = {t for node in chain for t in self.binders.get(node.node_id, ())}
        gone: set[int] = set()
        fresh: list[ForTuple] = []
        if isinstance(edit, Inserted):
            gone = {
                t
                for node in iter_nodes(moved)
                for t in self.binders.get(node.node_id, ())
            }
        else:
            fresh = self._through(chain, moved)
        # a fresh test per probe: values read before the undo may be stale
        holds = condition_test(self.view.conditions, self.view.bindings)
        changes: list[_Change] = []
        for t in sorted(hit | gone):
            row = None if t in gone else self._row(self.tuples[t], holds)
            if self.shown[t] or row is not None:
                changes.append(((t, 1), self.rows_before[t], self.shown[t], row))
        appeared = [
            (tup, row) for tup in fresh if (row := self._row(tup, holds)) is not None
        ]
        shown_before = sum(change[2] for change in changes)
        shown_after = len(appeared) + sum(change[3] is not None for change in changes)
        if shown_after != shown_before:
            return False  # the row count changes
        if appeared:
            changes.extend(self._placed(appeared))
            changes.sort(key=lambda change: change[0])
        return _rows_agree(changes, wrappers)

    def _row(self, tup: ForTuple, holds: ConditionTest) -> Optional[list[XmlTree]]:
        """The trees of the row ``tup`` shows, or None if it shows none;
        ``holds`` is the view's condition test on the store as it is now."""
        if not holds(tup):
            return None
        return row_trees(self.view.returns, tup)

    def _through(self, chain: list[XmlTree], restored: XmlTree) -> list[ForTuple]:
        """The tuples a restored child adds: per binding level, the partials
        indexed under a context in ``chain`` (the child's parent and its
        ancestors) whose path runs through ``restored``, extended by the
        nodes that path reaches under it and through the later bindings."""
        bindings = self.view.bindings
        found: list[ForTuple] = []
        below = (restored.label,)  # the labels from the context down to it
        for context in chain:
            for i, binding in enumerate(bindings):
                partials = self.partials.get((i, context.node_id))
                if not partials or self.steps[i][: len(below)] != below:
                    continue
                nodes = locate(restored, self.steps[i][len(below) :])
                level = [{**p, binding.var: n} for p in partials for n in nodes]
                for later in bindings[i + 1 :]:
                    level = bind_level(later, level, self.store)
                found.extend(level)
            below = (context.label,) + below
        return found

    def _placed(
        self, appeared: list[tuple[ForTuple, list[XmlTree]]]
    ) -> list[_Change]:
        """Give each new showing tuple its place in nested-loop order, which
        is the order of its nodes' positions in the documents."""
        order = {
            n.node_id: k
            for k, n in enumerate(
                n for root in self.store.docs.values() for n in iter_nodes(root)
            )
        }

        def key(tup: ForTuple) -> tuple[int, ...]:
            return tuple(order[n.node_id] for n in tup.values())

        keys = [key(tup) for tup in self.tuples]
        out: list[_Change] = []
        for tup, row in appeared:
            at = bisect.bisect_left(keys, key(tup))
            out.append(((at, 0, key(tup)), self.rows_before[at], False, row))
        return out


def _rows_agree(changes: list[_Change], wrappers: list[XmlTree]) -> bool:
    """Whether the re-checked tuples, in tuple order, leave the rows
    ``wrappers`` as they are, given that the row count does not change.

    Rows of tuples that were not re-checked keep their trees but may move
    by as many places as rows appeared before them, less those that went.
    """
    offset = start = 0  # rows gained so far; first row not yet accounted for
    for _place, cursor, shown, row in changes:
        if offset and not all(
            value_equal(wrappers[r], wrappers[r + offset]) for r in range(start, cursor)
        ):
            return False
        if row is not None:
            kids = wrappers[cursor + offset].children or []
            if len(row) != len(kids) or not all(map(value_equal, row, kids)):
                return False
            offset += 1
        if shown:
            offset -= 1
            cursor += 1
        start = cursor
    return True


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
    L3: per satisfying tuple, the source update's where clause, as
        emitted, holds exactly when the view update's condition holds on
        the tuple's wrapper tree, read as its row on the unmodified sources.

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
    """L1: per tuple on the sources, the plan touches all or none of the
    trees ``target_trees`` reaches."""
    update = routes.source_update
    if isinstance(update.action, DeleteBinding):
        # a binding deletion's set per tuple is its one bound node, touched
        # or not, so L1 holds without enumerating the tuples
        return True
    for tup in enumerate_bindings(update.bindings, routes.store):
        ids = {n.node_id for n in target_trees(update.target, tup)}
        hit = ids & routes.touched
        if hit and hit != ids:
            return False
    return True


def _lemma2(routes: _Routes, case: Case) -> bool:
    """L2: route A's satisfying tuples against those of the view evaluated
    on the sources, which are route B's: the direct update edits only its
    tree."""
    before, after = routes.via_view.tuples, routes.via_source.tuples
    if case is Case.T4:
        var = routes.source_update.action.var
        gone = {e.node_id for e in routes.log if isinstance(e, Deleted)}
        return len(after) == sum(1 for t in before if t[var].node_id not in gone)
    return len(after) == len(before)


def _lemma3(routes: _Routes) -> bool:
    """L3 on each of route B's tuples, those of the view on the sources: the
    emitted where clause, tested on the restored sources, against the view
    atom's flag on the tuple's wrapper (``_Routes.view_holds``), which route
    B evaluated over the tuple's row and tested before the view update
    edited it; no wrapper is built here."""
    # a translated statement keeps the view's for-clause, so each view tuple
    # binds every variable its where clause reads
    source = routes.source_update
    source_holds = condition_test(source.conditions, source.bindings)
    pairs = zip(routes.via_view.tuples, routes.view_holds, strict=True)
    return all(source_holds(tup) == held for tup, held in pairs)
