"""Apply update statements to document stores and view instances.

There is one update engine.  A view-level statement is first rewritten into
its context form (``context_form``), a one-binding statement over the view
instance held as a one-document store; from there both levels are planned
and executed alike.  The context form is the one place that decides where a
view update's condition pairs with its target: the translator and the
lemma suite read it too.

Application is two-phase: a planning pass enumerates the statement's
for-clause against the pre-edit state, evaluates conditions, resolves
target nodes, collapses duplicate (node, action) applications so that
only the first takes effect, and resolves each application to the
``Inserted``/``Deleted`` edits it makes; an execution pass then performs
those edits and returns them as the edit log.  Conditions therefore always
see the pre-state, re-applying the same planned action to a node is a
no-op by construction, and a statement that fails raises while planning,
so it changes nothing.

A ``Deleted`` record holds the removed subtree itself, not a copy: once it
leaves the store nothing edits it.  An ``Inserted`` record holds the
statement's payload, of which each execution or replay places a fresh-id
copy.  Execution filters each parent's child list once for all of a
statement's deletions under it, so deleting k of n siblings costs n steps,
not k·n; replaying a log removes one child at a time, in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import LevelMismatch, TargetIsRoot, TargetNotElement
from .evaluator import (
    ForTuple,
    ViewInstance,
    # not called here, but the bench tracer's tests read it at this name
    enumerate_bindings,
    satisfying_tuples,
)
from .lang import (
    Binding,
    DeleteBinding,
    DeleteLabel,
    DeleteTree,
    InsertTree,
    PathEqString,
    UpdateStatement,
    UpdateTarget,
    expand_path,
)
from .xml_model import (
    Ancestry,
    DocRoot,
    DocumentStore,
    QualifiedPath,
    XmlTree,
    _collector_deferred,
    copy_tree,
    locate,
    serialize,
    value_equal,
)


# ----------------------------------------------------------------------
# Edits

@dataclass(slots=True)
class Inserted:
    """An insertion under the node ``parent_id``.  A plain record: nothing
    modifies or hashes one once made, and callers must not modify it."""

    parent_id: int
    tree: XmlTree  # the statement's payload; a fresh-id copy of it is placed


@dataclass(slots=True)
class Deleted:
    """The deletion of child ``node_id`` of the node ``parent_id``.  A plain
    record: nothing modifies or hashes one once made, and callers must not
    modify it."""

    parent_id: int
    node_id: int
    tree: XmlTree  # the removed subtree


Edit = Union[Inserted, Deleted]


def edit_to_json(edit: Edit) -> str:
    """One edit as a JSON line: {"op": ..., "parent": ..., "tree": ...}."""
    op = "insert" if isinstance(edit, Inserted) else "delete"
    return json.dumps(
        {"op": op, "parent": edit.parent_id, "tree": serialize(edit.tree)},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Planning

@dataclass(slots=True)
class PlannedOp:
    """One collapsed application of the statement's action, resolved to edits.

    ``target`` is the node the action applies to, and the collapse key: a
    statement carries exactly one action, so its node id is the whole key.
    For a binding deletion the target is the removed tree itself.
    ``parent`` is the node the ``edits`` land under.  An application that
    matches nothing keeps its place in the plan, with no edits.  A plain
    record, like the edits: nothing modifies or hashes one once planned.
    """

    target: XmlTree
    parent: XmlTree
    edits: list[Edit]


def context_form(stmt: UpdateStatement) -> UpdateStatement:
    """The one-binding statement a view-level statement stands for:
    ``for c in doc(<view>)/<prefix> where c/<cond rest>="lit" update
    c/<target rest>``, rooted at the view's root name so that it plans over
    the instance held as a one-document store of that name.

    The condition and target paths are expanded through the statement's
    bindings; ``prefix`` is their common front part, so ``c`` ranges over
    the view nodes under which condition and target trees pair up, and the
    condition and the target are the remainders under it.  One exception,
    forced by the source translation of root-level wrapper deletion: when
    the deleted label is the very step the condition path descends
    through, ``c`` ranges over the deleted children and each one whose own
    subtree satisfies the condition is deleted as a binding (deleting every
    wrapper tree as soon as one matched would not survive re-evaluation of
    the translated update).
    """
    if stmt.level != "view":
        raise LevelMismatch("the context form is defined for view-level updates")
    (atom,) = stmt.conditions
    _, cond = expand_path(stmt, *atom.lhs)
    _, target = expand_path(stmt, stmt.target.var, stmt.target.path)
    action = stmt.action
    if (
        isinstance(action, DeleteLabel)
        and len(target) == 1
        and cond[1:2] == (action.label,)
    ):
        prefix = cond[:2]
        rest = UpdateTarget("c", (), parent_step=True)
        action = DeleteBinding("c")
    else:
        # both paths start at the view's root name
        common = 0
        for a, b in zip(cond, target):
            if a != b:
                break
            common += 1
        prefix = target[:common]
        rest = UpdateTarget("c", target[common:])
    binding = Binding("c", QualifiedPath(DocRoot(prefix[0]), prefix))
    cond_rest = PathEqString(("c", cond[len(prefix) :]), atom.value)
    return UpdateStatement("source", (binding,), (cond_rest,), rest, action)


def _source_applications(
    stmt: UpdateStatement, store: DocumentStore, satisfied: list[ForTuple]
) -> Iterator[tuple[XmlTree, XmlTree]]:
    """Per condition-satisfying for-clause tuple (``satisfied``), act on
    every target tree.

    Yields (target, parent) pairs, as ``_resolve`` takes them, for the trees
    ``target_trees`` reaches; but ``x/..`` (or a binding deletion) reaches
    the parent of the node bound to ``x``, read off the store's ``Ancestry``
    only as deep as that node.
    """
    action, target = stmt.action, stmt.target
    deletes_binding = isinstance(action, DeleteBinding)
    parent_of = None  # made at the first tuple that needs it
    for tup in satisfied:
        if deletes_binding or (target.parent_step and not target.path):
            var = action.var if deletes_binding else target.var
            if parent_of is None:
                parent_of = Ancestry(store).parent
            parent = parent_of(tup[var])
            if parent is None:
                raise TargetIsRoot(
                    f"binding {var!r} is a root and cannot be deleted"
                    if deletes_binding
                    else "the parent step would leave the document"
                )
            yield (tup[var] if deletes_binding else parent), parent
            continue
        for node in target_trees(target, tup):
            yield node, node


def target_trees(target: UpdateTarget, tup: ForTuple) -> list[XmlTree]:
    """The trees ``target`` reaches in one tuple: those its path locates from
    its variable's node; for ``x/M/T/..`` the ``M`` nodes with a ``T`` child,
    and for ``x/..`` just ``[x]`` (the tuple does not hold x's parent)."""
    context, path = tup[target.var], target.path
    if target.parent_step and path:
        return [n for n in locate(context, path[:-1]) if locate(n, path[-1:])]
    return locate(context, path)


def _resolve(target: XmlTree, parent: XmlTree, action) -> list[Edit]:
    """The edits one application makes, read off the pre-edit state.

    A target other than its parent is removed whole (binding deletion).
    Otherwise insertion appends a copy of the payload last, tree deletion
    removes every child value-equal to the payload and label deletion every
    child bearing the label.

    Reading deletions before any edit lands is safe: every target path is a
    fixed-length child path, so all targets of one statement sit at the same
    depth, and no application can change another application's children.
    For the same reason a ``Deleted`` record holds the removed child itself:
    no edit of the statement reaches into it, and once removed it is in no
    store a later statement edits.  An ``Inserted`` record holds the
    statement's payload itself: it is never placed or edited, since every
    execution or replay places a fresh-id copy of it.
    """
    if target is not parent:
        return [Deleted(parent.node_id, target.node_id, target)]
    if isinstance(action, InsertTree):
        if target.is_text:
            raise TargetNotElement(f"cannot insert under text leaf {target.label!r}")
        return [Inserted(target.node_id, action.tree)]
    children = target.children or []
    if isinstance(action, DeleteTree):
        gone = [c for c in children if value_equal(c, action.tree)]
    elif isinstance(action, DeleteLabel):
        gone = [c for c in children if c.label == action.label]
    else:
        raise TypeError(f"cannot plan {action!r} here")
    return [Deleted(target.node_id, c.node_id, c) for c in gone]


class _Plan(list):
    """A plan: its ``PlannedOp`` operations, in order; as ``form`` the
    source-level statement planned, which for a view-level statement is its
    context form; and as ``satisfied`` the tuples of ``form``'s for-clause
    whose where clause held on the pre-edit state, in nested-loop order.
    The lemma suite reads both, so that it need neither work the context
    form out again nor test either where clause again."""

    form: UpdateStatement
    satisfied: list[ForTuple]


def plan_update(stmt: UpdateStatement, target) -> list[PlannedOp]:
    """Plan all applications against the pre-edit state, first one per node.

    A source-level statement is planned on a DocumentStore and a view-level
    one on a ViewInstance; otherwise ``LevelMismatch`` is raised before
    anything else reads the statement.  The list returned also records the
    statement planned and the tuples that satisfied its where clause
    (``_Plan.form``, ``_Plan.satisfied``)."""
    if stmt.level == "view":
        if not isinstance(target, ViewInstance):
            raise LevelMismatch("a view-level update applies to a ViewInstance")
        stmt, instance = context_form(stmt), target
        target = DocumentStore()
        target.add(stmt.bindings[0].source.root.doc, instance.tree)
    elif not isinstance(target, DocumentStore):
        raise LevelMismatch("a source-level update applies to a DocumentStore")
    satisfied = satisfying_tuples(stmt.bindings, target, stmt.conditions)
    ops: dict[int, PlannedOp] = {}
    for node, parent in _source_applications(stmt, target, satisfied):
        if node.node_id not in ops:
            ops[node.node_id] = PlannedOp(
                node, parent, _resolve(node, parent, stmt.action)
            )
    plan = _Plan(ops.values())
    plan.form, plan.satisfied = stmt, satisfied
    return plan


# ----------------------------------------------------------------------
# Execution

def _mutate(parent: XmlTree, edit: Edit, at: Optional[int] = None) -> None:
    """Replay one edit: append a fresh-id copy of an insertion's tree, or
    remove a deleted child in place.

    A deleted child is taken from index ``at`` of the child list when it
    holds the logged subtree itself: a minimality probe's redo passes the
    restore point its undo put that subtree back at, so the redo does not
    compare children, and its cost is the list shift of the deletion.
    Otherwise the child is found by id (a replay onto an id-preserving copy
    of the store); a child that is not there is left alone.
    """
    if isinstance(edit, Inserted):
        parent.children = (parent.children or []) + [copy_tree(edit.tree)]
        return
    children = parent.children or []
    if at is None or at >= len(children) or children[at] is not edit.tree:
        found = (i for i, c in enumerate(children) if c.node_id == edit.node_id)
        at = next(found, None)
        if at is None:
            return
    del children[at]


def execute_plan(plan: list[PlannedOp]) -> list[Edit]:
    """Perform a plan's edits and return them as the edit log, in plan order.

    Insertions are appended one by one.  Deletions are grouped by parent,
    and each parent's child list is filtered once for all of them; a child
    is removed by its id alone, so the result is that of removing them one
    at a time.  Each edited parent is given a new child list and no list is
    edited in place, so a caller that kept the old lists can put them back.
    """
    edits: list[Edit] = []
    parents: dict[int, XmlTree] = {}  # the parents of deletions, each once
    gone: set[int] = set()  # the ids of the deleted children
    for op in plan:
        for edit in op.edits:
            if isinstance(edit, Inserted):
                _mutate(op.parent, edit)
            else:
                parents[edit.parent_id] = op.parent
                gone.add(edit.node_id)
        edits.extend(op.edits)
    for parent in parents.values():
        parent.children = [c for c in parent.children or [] if c.node_id not in gone]
    return edits


@_collector_deferred
def apply_update(stmt: UpdateStatement, target) -> list[Edit]:
    """Apply a statement to a DocumentStore or ViewInstance, mutating it.

    Per context tuple: if some condition tree satisfies the where clause,
    the action is applied to every tree at the target path under that
    context.  Duplicate (node, action) applications collapse to the first.
    An unsatisfiable condition leaves the target unchanged and the log
    empty, and so does a statement that fails: every error is raised while
    planning, before any edit lands.  The cyclic garbage collector is held
    off while the call runs and then left as it was found
    (``xml_model._collector_deferred``).
    """
    return execute_plan(plan_update(stmt, target))


def replay_edits(
    edits: list[Edit], store: DocumentStore, places: Optional[dict[int, int]] = None
) -> None:
    """Re-apply a recorded edit log, one edit at a time, to a store holding
    the logged parents' ids: an id-preserving copy of the pre-edit store, or
    the updated store itself with edits undone in place.

    ``places`` maps a deleted child's id to the index its parent's list is
    expected to hold it at, such as a probe's restore point; ``_mutate``
    checks that index first and finds a child not there by its id."""
    for edit in edits:
        parent = store.find_node(edit.parent_id)
        if parent is None:
            raise ValueError(f"edit parent {edit.parent_id} not found in store")
        at = places.get(edit.node_id) if places and isinstance(edit, Deleted) else None
        _mutate(parent, edit, at)
