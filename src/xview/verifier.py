"""Executable precision oracles for translated updates.

Correctness compares, as ordered value trees, the view evaluated after the
source update against the view instance updated directly.  Minimality is
checked by leave-one-edit-out: if dropping any single recorded edit still
yields a correct result, the translation over-updated the source.  It probes
on the sources in route A's state: each edit is undone in place, the view is
checked against the directly updated instance, and the edit is redone.  A
probe re-checks only the tuples the undone edit reaches, read off an index
of that store and view built once per verification, and re-evaluates the
view only where rows could shift, so a verification costs a few
evaluations, not one per edit; route A's view is read off the same index,
whose probe-only parts are built only when there is an edit.  What a probe
reads of its edit's parent alone is made once per parent and check, and
shared by that parent's probes.
An undone deletion puts back the logged subtree itself, at the place it
held in its parent's child list before route A's plan ran, among the
siblings that stay.  Both oracles are independent of the translation path
they judge: they only evaluate, apply and compare.  The two update routes
are computed once per verification, and every oracle reads them from that
one record; each check reads what the two plans already recorded, rather
than working it out again.  The verifier tests no where clause of its own:
the probe index and each probe decide the view's clause with the
evaluator's ``where_holds``, the same per-level passes an evaluation runs.

A verification copies neither the store nor a view, and copies a row only
before an edit could reach inside it.  Route B updates the instance
evaluated on the sources over their own, uncopied rows, after copying the
rows of the wrappers that hold an edit parent of either plan or one of its
ancestors (copy on write, as in path copying), read off the sources'
``xml_model.Ancestry``, as the planner reads a parent.  Only an ancestor at
a depth where the view's rows lie can be a row, so a plan whose edit
parents all lie above the rows reads no wrapper.  Route A applies the
source update to the sources themselves and reads its view off the probe
index, as wrappers over the shown tuples' uncopied rows; once correctness
and minimality are judged, every planned parent gets back the very child
list it held, and the lemma suite reads the restored sources.  The
put-back is exact because execution and insertion always give a parent a
new list, and the probes' in-place undo and redo touch only those new
lists.  Route A's put-back record, each planned parent with the list it
held, is also where the probes find their edits' parents and restore
points, and where L1 finds the trees the plan touched.  Route B is put
back the same way, so afterwards its instance is the view on the sources
again.  Rows the two routes share are the same objects, so comparing them
costs nothing (``value_equal``).

The lemma suite checks once that the statements are of the shape the
lemmas are stated for, as every translation is, and reports no lemmas
otherwise.  L1 enumerates no tuple: the trees a tuple's target reaches
depend on the target variable's node alone, so it checks only the target
nodes above the trees the plan touched.  L3
builds no wrapper, and tests no where clause: it reads which tuples
satisfied the source update's clause and which context nodes of route B's
restored wrappers satisfied the view update's context form.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .evaluator import (
    ForTuple,
    ViewInstance,
    bind_level,
    binding_scope,
    check_product,
    evaluate_view,
    row_trees,
    satisfying_tuples,
    view_tree,
    where_holds,
)
from .lang import DeleteBinding, UpdateStatement, ViewDef, expand_path
from .translator import Case
from .updater import (
    Deleted,
    Edit,
    Inserted,
    PlannedOp,
    edit_to_json,
    execute_plan,
    plan_update,
    replay_edits,
    target_trees,
)
from .xml_model import (
    Ancestry,
    DocumentStore,
    XmlTree,
    _collector_deferred,
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
    planned and applied on ``store`` itself, whose edit log and put-back
    record (``put_back``, see ``_executed``) are kept, and the view on the
    updated store is read off ``index`` as wrappers over uncopied rows.
    The source plan's satisfying tuples and those of the view update's last
    plan (``satisfied``), and the context form that plan was made from
    (``form``), are kept for the lemma suite, as ``updater._Plan`` records
    them.  Route B (``via_view``) is update(view(sources)):
    the view update is applied to the evaluation of the view on the
    sources, which edits its tree but not its tuples, so those stay the
    view's tuples on the sources.  Its wrappers hold the sources' own row
    trees, except those that ``_compute_routes`` copied because they hold an
    edit parent of either plan or one of its ancestors; so a row tree both
    routes show unedited is one object.  Both routes are valid only while
    ``_compute_routes`` holds ``store`` in route A's state and ``via_view``
    updated; the minimality check probes there and leaves it holding the
    same nodes as before.  Afterwards ``store`` holds the sources again,
    ``via_source``'s tuples still read as computed, and ``via_view`` is the
    view on the sources: the same tuples, and a tree whose wrappers hold
    the same rows (or value-equal copies of them).
    """

    view: ViewDef
    view_update: UpdateStatement
    source_update: UpdateStatement
    store: DocumentStore
    log: list[Edit]
    put_back: _PutBack
    via_source: ViewInstance
    via_view: ViewInstance
    index: _ProbeIndex
    satisfied: tuple[list[ForTuple], list[ForTuple]]
    form: UpdateStatement


@contextlib.contextmanager
def _compute_routes(
    view: ViewDef,
    view_update: UpdateStatement,
    source_update: UpdateStatement,
    store: DocumentStore,
) -> Iterator[_Routes]:
    """Compute both routes and hold them updated while the body runs: route
    A's ``store`` and route B's instance.  On exit, even by an exception,
    both plans' edited parents get back their child lists: ``store`` holds
    the sources again, node for node and child list for child list, and
    route B's instance is the view on the sources again.

    Route B's instance is evaluated over the sources' own rows, which are
    copied (copy on write, ``_copy_rows``) for the source plan, then for the
    view update's plan.  If that plan reaches a wrapper still shared, the
    view update is planned once more over the copies, which reaches the
    same wrappers, since copies change no value: planning collapses
    applications by node id, so one source subtree shown in two edited
    wrappers is two operations only once each wrapper has its own copy.
    Every other row stays shared, and no edit reaches it.

    The copies, the probes and L1 read one ``Ancestry`` of the sources.
    ``_copy_rows`` asks it about every edit parent of both plans that lies
    in the sources before route A executes, the probes only about route A's
    edit parents, and L1 after the put-back, so no level of the sources is
    first read in route A's state, and none is read for a node of a copy.

    Every step that can fail runs before the first edit lands: the source
    update's plan, then the view's evaluation, then the view update's plan,
    whose level ``plan_update`` checks before anything else reads the view
    update.
    """
    plan = plan_update(source_update, store)
    via_view = evaluate_view(view, store, copy_rows=False)
    ancestry, copied = Ancestry(store), set()
    depths = _row_depths(view)
    _copy_rows(plan, via_view, ancestry, copied, depths)
    view_plan = plan_update(view_update, via_view)
    if _copy_rows(view_plan, via_view, ancestry, copied, depths):
        view_plan = plan_update(view_update, via_view)
    with _executed(view_plan), _executed(plan) as (log, put_back):
        index = _ProbeIndex(view, store, ancestry)
        tuples = list(itertools.compress(index.tuples, index.shown))
        yield _Routes(
            view,
            view_update,
            source_update,
            store,
            log,
            put_back,
            ViewInstance(view_tree(view, tuples), tuples),
            via_view,
            index,
            (plan.satisfied, view_plan.satisfied),
            view_plan.form,
        )


def _row_depths(view: ViewDef) -> set[int]:
    """The depths at which the view's row trees lie in their documents: a
    return ``{v/γ}`` locates trees |γ| steps below ``v``'s node, which lies
    as deep as ``v``'s binding path, expanded to its document, reaches."""
    return {len(expand_path(view, ret.var, ret.gamma)[1]) - 1 for ret in view.returns}


def _copy_rows(
    plan: list[PlannedOp],
    instance: ViewInstance,
    ancestry: Ancestry,
    copied: set[int],
    depths: set[int],
) -> bool:
    """Copy the rows of each wrapper not in ``copied`` that has a row tree
    on the chain of a plan's edit parent, add it to ``copied``, and return
    whether any was copied.  A parent the instance owns is skipped: its
    root, a wrapper, or a node of a row copied already.  Such a row's
    wrapper is in ``copied``, so its chain would copy nothing, and asking
    ``ancestry`` about a copy's fresh ids would read every level of the
    sources still unread, only to find no parent.

    Only the chain nodes at a row depth (``_row_depths``) can be row trees,
    and a node's depth is its distance from the chain's end, a document
    root.  The wrappers are scanned only when such a node is left, so a
    plan whose edit parents lie above every row, such as a root deletion's,
    reads no wrapper's rows."""
    wrappers = instance.tree.children or []
    owned = {id(instance.tree), *map(id, wrappers)}
    for i in copied:
        owned.update(id(n) for row in wrappers[i].children for n in iter_nodes(row))
    parents = {id(op.parent): op.parent for op in plan if op.edits}
    reached = set()
    for key, parent in parents.items():
        if key not in owned:
            chain = ancestry.chain(parent)
            top = len(chain) - 1  # chain[k] lies top - k below its root
            reached.update(chain[top - d] for d in depths if d <= top)
    if not reached:
        return False
    fresh = [
        i
        for i, wrapper in enumerate(wrappers)
        if i not in copied and not reached.isdisjoint(wrapper.children)
    ]
    for i in fresh:
        wrappers[i].children = [copy_tree(t) for t in wrappers[i].children]
    copied.update(fresh)
    return bool(fresh)


# a plan's put-back record: per planned parent's id, the parent and the
# child list it held before the plan ran
_PutBack = dict[int, tuple[XmlTree, Optional[list[XmlTree]]]]


@contextlib.contextmanager
def _executed(plan: list[PlannedOp]) -> Iterator[tuple[list[Edit], _PutBack]]:
    """Execute a plan and yield its edit log with its put-back record; on
    exit, give every planned parent back the very list object the record
    holds for it.

    Execution never edits a parent's list in place but gives it a new one,
    so the lists put back still hold exactly the children they held.  The
    record holds the parent of every planned operation, edits or none; that
    parent is the operation's own target, except for a binding deletion,
    whose target is the child it removes.
    """
    put_back = {op.parent.node_id: (op.parent, op.parent.children) for op in plan}
    try:
        yield execute_plan(plan), put_back
    finally:
        for parent, children in put_back.values():
            parent.children = children


@_collector_deferred
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
    witness's tree is the source's own subtree, back in ``store``.  The
    cyclic garbage collector is held off while the call runs, its own
    evaluations and plans included, and then left as it was found
    (``xml_model._collector_deferred``)."""
    with _compute_routes(view, view_update, source_update, store) as routes:
        correct, diff = check_correctness(routes)
        minimal, witness = check_minimality(routes) if correct else (False, None)
    lemmas: list[tuple[str, bool]] = []
    if correct and case is not None:
        lemmas = run_lemma_suite(routes, case)
    return VerificationReport(correct, diff, minimal, witness, lemmas)


def tree_diff(a: XmlTree, b: XmlTree) -> Optional[dict]:
    """First divergence between two trees, or None when ``value_equal``.

    One lockstep preorder walk over node pairs: the first pair whose labels,
    texts or child counts differ is reported, with the left tree's path to
    it (``v[0]/e[1]/B``).  The walk keeps one stack of pairs still to visit,
    each with its place among its parent's children and a link to the
    entry of its parent pair; the path is read off those links only at a
    divergence.  A child pair whose two sides are the same object is never
    stacked, so wrappers over shared rows cost one visit each; a pair keeps
    the place it has among all its siblings, so the path is the same as
    when every pair is visited.
    """
    stack: list[tuple] = [(a, b, 0, None)]  # (left, right, place, parent entry)
    push = stack.append
    while stack:
        entry = stack.pop()
        x, y = entry[0], entry[1]
        xc, yc = x.children, y.children
        # equal texts also mean the same content kind (see value_equal)
        if x.label != y.label or x.text != y.text or (
            xc is not None and len(xc) != len(yc)
        ):
            steps = []
            while entry[3] is not None:
                steps.append(f"[{entry[2]}]/{entry[0].label}")
                entry = entry[3]
            path = a.label + "".join(reversed(steps))
            return {"path": path, "left": serialize(x), "right": serialize(y)}
        if xc:
            for i in range(len(xc) - 1, -1, -1):  # pushed last, visited first
                if xc[i] is not yc[i]:
                    push((xc[i], yc[i], i, entry))
    return None


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
    child list, so a probe re-checks only the tuples that reach that parent,
    off ``routes.index``, and the whole view only where rows could move.
    The parent and, for a deletion, its restore point are read off route
    A's put-back record (``routes.put_back``); the redo is handed the
    restore points, so it takes a restored child out at its own index, not
    by scanning the parent's child list.  What a probe reads of its
    parent alone (``_ParentProbe``: its ancestors, the tuples that bind
    them, the batches a restored child can add, and a store holding just
    the parent, onto which the redo replays the edit, so finding the parent
    reads one node) is made at that parent's first probe and read by every
    later probe of it in this check; a root deletion's probes share one.  An
    empty log is trivially minimal, and the index's probe-only parts are
    built only when there is an edit.
    """
    wrappers = routes.via_view.tree.children or []
    if routes.log:
        routes.index.prepare_probes()
    points = _restore_points(routes)
    probes: dict[int, _ParentProbe] = {}  # per edit parent's id
    for edit in routes.log:
        probe = probes.get(edit.parent_id)
        if probe is None:
            parent = routes.put_back[edit.parent_id][0]
            probe = probes[edit.parent_id] = routes.index.parent_probe(parent)
        moved = _undo(edit, probe.parent, points)
        try:
            same = routes.index.unchanged_without(edit, probe, moved, wrappers)
        finally:
            replay_edits([edit], probe.redo, points)
        if isinstance(edit, Inserted):
            # the redo appended a fresh-id copy: keep the indexed node
            probe.parent.children[-1] = moved
        if same:
            return False, edit
    return True, None


def _restore_points(routes: _Routes) -> dict[int, int]:
    """Per child route A deleted, its place among its parent's children
    with every other deletion applied: the number of siblings before it
    that stay.

    Read in route A's state, off the parent's list in the put-back record
    and the list it holds now, visiting only the parents of the log's
    deletions; a log without deletions reads nothing.
    """
    points: dict[int, int] = {}
    for parent_id in {e.parent_id for e in routes.log if isinstance(e, Deleted)}:
        parent, before = routes.put_back[parent_id]
        stays = {child.node_id for child in parent.children or ()}
        kept = 0
        for child in before or ():
            if child.node_id in stays:
                kept += 1
            else:
                points[child.node_id] = kept
    return points


def _undo(edit: Edit, parent: XmlTree, points: dict[int, int]) -> XmlTree:
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
    parent.children.insert(points[edit.node_id], edit.tree)
    return edit.tree


class _ProbeIndex:
    """Route A's store and view, indexed so that a probe re-checks only the
    tuples its undone edit reaches.

    Built with route A's view, on the store with every edit applied: each
    binding level's partial tuples, and every enumerated tuple with its
    condition flag, set by ``holds``: the view's clause prepared once with
    ``where_holds``.  ``prepare_probes`` adds what only probes read, so a
    verification with nothing to probe builds none of it: the partials
    keyed by the node their level's path is evaluated from, and each
    tuple's row number and the ids of the nodes it binds.  Ancestors are
    read off ``chain``, the sources' ``Ancestry``, whose levels were read
    before route A ran, so the index reads no level of the store; the edits'
    parents are read off route A's put-back record, not off the index.
    Undoing an edit changes one parent P's child list.  Only three sets of
    tuples can then differ: restored tuples, whose binding path runs
    through P to a restored child (the indexed partials, extended through
    that child and through the later bindings); gone tuples, indexed ones
    that bind a node of a removed insertion; and hit tuples, surviving ones
    that bind P or one of its ancestors, the only nodes whose subtrees
    changed.  Every other tuple keeps its condition result and its row.
    Which tuples are hit, and which partials a restored child of a given
    label extends, depend on P alone, so they are read once per parent
    (``parent_probe``) and shared by all of its probes.  A probe tests
    tuples with ``holds`` too, one call, so one pass, per batch: the hit
    tuples in one batch, and the restored tuples one level and context at a
    time (``_restored_shows``), made and tested in turn up to the first
    batch that shows a row.
    """

    def __init__(self, view: ViewDef, store: DocumentStore, ancestry: Ancestry) -> None:
        self.view, self.store, self.chain = view, store, ancestry.chain
        # levels[i]: the partial tuples binding i extends
        self.levels: list[list[ForTuple]] = [[{}]]
        for binding in view.bindings:
            self.levels.append(bind_level(binding, self.levels[-1], store))
        self.tuples = self.levels[-1]
        self.holds = where_holds(view.bindings, view.conditions)
        self.shown = self.holds(self.tuples)

    def prepare_probes(self) -> None:
        """Build the parts only probes read, on the store in route A's state,
        as the index was built on it; this walks no store."""
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

    def parent_probe(self, parent: XmlTree) -> _ParentProbe:
        """The context every probe of an edit under ``parent`` reads, made
        after ``prepare_probes``."""
        chain = self.chain(parent)
        hit = list({t for node in chain for t in self.binders.get(node.node_id, ())})
        tuples, shown = self.tuples, self.shown
        redo = DocumentStore()
        redo.add("parent", parent)
        return _ParentProbe(
            parent, chain, hit, [tuples[t] for t in hit], [shown[t] for t in hit], redo
        )

    def unchanged_without(
        self, edit: Edit, probe: _ParentProbe, moved: XmlTree, wrappers: list[XmlTree]
    ) -> bool:
        """Whether the view on the store, with ``edit`` undone, still has
        exactly the rows ``wrappers``: those of the view with it applied.
        ``moved`` is the child of the edit's parent that the undo put back
        or removed, and ``probe`` that parent's context.

        The answer is exact.  With no tuple hit or gone, the undo can only
        add rows: it is decided at the first batch of restored tuples that
        shows one (``_restored_shows``).  With none gone, no restored tuple
        showing a row and each hit tuple keeping its flag, every row keeps
        its place, and each showing hit tuple's row is compared with the row
        of its number.  Otherwise the view is evaluated on the store and
        compared whole.  An undone insertion restores no child.
        """
        inserted = isinstance(edit, Inserted)
        gone = inserted and any(n.node_id in self.binders for n in iter_nodes(moved))
        if not probe.hit and not gone:
            return inserted or not self._restored_shows(probe, moved)
        if not gone:
            shows = self.holds(probe.hit_tuples)
            if shows == probe.flags and (
                inserted or not self._restored_shows(probe, moved)
            ):
                returns, before = self.view.returns, self.rows_before
                return all(
                    _same_row(row_trees(returns, self.tuples[t]), wrappers[before[t]])
                    for t in itertools.compress(probe.hit, shows)
                )
        return self._view_matches(wrappers)

    def _restored_shows(self, probe: _ParentProbe, restored: XmlTree) -> bool:
        """Whether a tuple that a restored child of ``probe``'s parent adds
        shows a row.

        The tuples come in one batch per binding level and context: the
        partials indexed under a context in the parent's chain (the parent
        and its ancestors, nearest first) whose path runs through
        ``restored``, extended by the nodes that path reaches under it and
        through the later bindings.  Which partials those are, and the path
        left below the child, depend on the chain and the child's label
        alone, so they are read at the first probe restoring a child of
        that label and kept on ``probe``.  The batches are made in that
        order, one at a time, each tested with ``holds``, and the answer is
        given at the first batch that shows a row, so no later batch is
        made.  Where the view has no where clause and a batch no later
        binding, every tuple of it shows a row, so it shows one exactly when
        its path reaches some node: the batch is not built.  Built or not,
        each batch is first checked against the tuple budget
        (``check_product``)."""
        recipes = probe.recipes.get(restored.label)
        if recipes is None:
            recipes = probe.recipes[restored.label] = self._recipes(
                probe.chain, restored.label
            )
        clause_free = not self.view.conditions
        for var, partials, rest, later in recipes:
            nodes = locate(restored, rest)
            check_product(partials, var, len(nodes))
            if clause_free and not later:
                if nodes:  # the recipe's partials are never empty
                    return True
                continue
            level = [{**p, var: n} for p in partials for n in nodes]
            for binding in later:
                level = bind_level(binding, level, self.store)
            if any(self.holds(level)):
                return True
        return False

    def _recipes(self, chain: list[XmlTree], label: str) -> list[tuple]:
        """Per batch a restored child labelled ``label`` under ``chain[0]``
        adds, in ``_restored_shows``'s order: the batch's variable, the
        partials it extends, the path from the child to its nodes, and the
        later bindings."""
        bindings, recipes = self.view.bindings, []
        below = (label,)  # the labels from the context down to the child
        for context in chain:
            for i, binding in enumerate(bindings):
                partials = self.partials.get((i, context.node_id))
                if partials and self.steps[i][: len(below)] == below:
                    rest = self.steps[i][len(below) :]
                    recipes.append((binding.var, partials, rest, bindings[i + 1 :]))
            below = (context.label,) + below
        return recipes

    def _view_matches(self, wrappers: list[XmlTree]) -> bool:
        """Whether the view evaluated on the store shows the rows ``wrappers``."""
        view = self.view
        tuples = satisfying_tuples(view.bindings, self.store, view.conditions)
        rows = [row_trees(view.returns, tup) for tup in tuples]
        return len(rows) == len(wrappers) and all(map(_same_row, rows, wrappers))


def _same_row(row: list[XmlTree], wrapper: XmlTree) -> bool:
    """Whether ``wrapper`` holds the trees ``row``, by value."""
    kids = wrapper.children or []
    return len(row) == len(kids) and all(map(value_equal, row, kids))


@dataclass
class _ParentProbe:
    """What every probe of one edit parent reads alike, made at the parent's
    first probe (``_ProbeIndex.parent_probe``) and kept for that one check:
    the ``parent``, its ``chain`` (the parent, then its ancestors, nearest
    first), the ``hit`` tuples' numbers, those tuples and their flags in
    route A's view, per label of a restored child the batches it can add
    (``recipes``, filled in by ``_restored_shows``), and ``redo``, a store
    holding just the parent, onto which each probe's redo is replayed."""

    parent: XmlTree
    chain: list[XmlTree]
    hit: list[int]
    hit_tuples: list[ForTuple]
    flags: list[bool]
    redo: DocumentStore
    recipes: dict[str, list[tuple]] = field(default_factory=dict)


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
    L3: per satisfying tuple, extended through any binding the translation
        adds, the source update's where clause, as emitted, holds exactly
        when the view update's condition, in its context form, holds on the
        matching context node of the tuple's wrapper tree, read as its row
        on the unmodified sources; extensions and context nodes pair one to
        one, in document order.

    The lemmas are stated for the statements ``translate`` emits, and the
    suite checks that premise once: the source update's bindings extend the
    view's for-clause, a binding deletion deletes a view variable, and the
    view update's context form (``updater.context_form``) pairs its
    condition and target inside a wrapper, below the view root.  Every
    translation meets it, and so may a hand-written statement, which
    ``xview verify --delta-s`` judges under the translation's case when its
    added bindings take the translated statement's paths (``cli._lemma_case``
    checks that, since the pairing L3 reads holds for those paths alone);
    for any other statement (one that renames the view's variables, say) the
    suite reports no lemmas.

    The suite runs only on translations already found correct.  Agreement of
    the two routes at the target view path is therefore not checked here: it
    follows from the value equality of the whole instances.  It reads the
    restored sources and route B's restored instance, the very states the
    two plans were made on, so the suite reads what the plans recorded: the
    premise reads the context form the view update's plan was made from
    (``routes.form``), L1 route A's planned parents, and L3 both where
    clauses' verdicts.
    """
    form = routes.form
    view, source = routes.view, routes.source_update
    deleted = source.action.var if isinstance(source.action, DeleteBinding) else None
    if (
        source.bindings[: len(view.bindings)] != view.bindings
        or deleted not in {None, *(binding.var for binding in view.bindings)}
        or len(form.bindings[0].source.steps) < 2  # paired at the view root
    ):
        return []
    return [
        ("L1", _lemma1(routes)),
        ("L2", _lemma2(routes, case)),
        ("L3", _lemma3(routes, form)),
    ]


def _lemma1(routes: _Routes) -> bool:
    """L1: per tuple on the sources, the plan touches all or none of the
    trees ``target_trees`` reaches from the target variable's node.  The
    touched trees are route A's planned parents, read off its put-back
    record: every operation but a binding deletion's targets its own parent.

    No tuple is enumerated.  A target tree lies ``len(path) - parent_step``
    steps below the node that reaches it, and distinct nodes reach disjoint
    trees, so climbing that many steps from each touched tree through the
    sources' ``Ancestry`` (``routes.index.chain``), on the restored sources,
    finds every node whose trees the plan touches; each must have them all
    touched.  On a plan ``plan_update`` makes, each such node is some
    tuple's, so the verdict is that of checking every tuple; on any other
    plan, nodes no tuple binds are checked too, so it is at least as
    strict.
    """
    update = routes.source_update
    target = update.target
    up = len(target.path) - target.parent_step
    if isinstance(update.action, DeleteBinding) or up < 0:
        # one tree per tuple, its bound node for a binding deletion and for
        # x/.. the node itself: touched or not, L1 holds
        return True
    touched = routes.put_back.keys()
    chains = [routes.index.chain(parent) for parent, _ in routes.put_back.values()]
    above = {chain[up] for chain in chains if len(chain) > up}
    return all(
        {n.node_id for n in target_trees(target, {target.var: node})} <= touched
        for node in above
    )


def _lemma2(routes: _Routes, case: Case) -> bool:
    """L2: route A's satisfying tuples against those of the view evaluated
    on the sources, which are route B's: the direct update edits only its
    tree."""
    before, after = routes.via_view.tuples, routes.via_source.tuples
    if case is Case.T4:
        action = routes.source_update.action
        if not isinstance(action, DeleteBinding):
            return False  # the case is a root deletion the statement does not make
        gone = {e.node_id for e in routes.log if isinstance(e, Deleted)}
        return len(after) == sum(1 for t in before if t[action.var].node_id not in gone)
    return len(after) == len(before)


def _lemma3(routes: _Routes, form: UpdateStatement) -> bool:
    """L3 on each of route B's tuples, those of the view on the sources: the
    emitted where clause, on the restored sources, against the condition of
    the view update's context form ``form`` on the context nodes in the
    tuple's wrapper: those at the form's prefix below the wrapper step.  The
    tuple is extended through the bindings the translation added to the
    view's for-clause, and the extensions pair with the context nodes in
    document order, one to one.  Route B's instance is the view on the
    sources again, so no wrapper is built.

    Neither clause is tested again: the two plans already decided both on
    these very states (``routes.satisfied``).  The source plan enumerated
    every extension on the sources, and the view update's last plan every
    context node of the restored wrappers, so a verdict is a membership
    test.  The suite's premise makes those the pairs L3 reads."""
    (context,) = form.bindings
    below = context.source.steps[2:]  # the path from a wrapper to its contexts
    added = routes.source_update.bindings[len(routes.view.bindings) :]
    by_source, by_view = routes.satisfied
    held = {tuple(t.values()) for t in by_source}
    source_holds = lambda t: tuple(t.values()) in held
    view_holds = {t[context.var] for t in by_view}.__contains__
    wrappers = routes.via_view.tree.children or ()
    pairs = zip(routes.via_view.tuples, wrappers, strict=True)
    # each tuple pairs with its wrapper: the loop below gives the same
    # verdict, but its per-tuple list, locate and zip cost about 4% of a T4
    # verify of 160 tuples (measured on a 2-core x86-64 host, Python 3.11)
    if not added and not below:
        return all(source_holds(t) == view_holds(w) for t, w in pairs)
    for tup, wrapper in pairs:
        extended = [tup]
        for binding in added:
            extended = bind_level(binding, extended, routes.store)
        contexts = locate(wrapper, below)
        if len(extended) != len(contexts) or any(
            source_holds(t) != view_holds(c) for t, c in zip(extended, contexts)
        ):
            return False
    return True
