"""Apply update statements to document stores and view instances.

There is one update engine.  A view-level statement is first rewritten into
the one-binding source-level statement its abstract form describes, over
the view instance held as a one-document store; from there both levels are
planned and executed alike.

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
from typing import Callable, Iterator, Optional, Union

from .errors import LevelMismatch, TargetIsRoot, TargetNotElement
from .evaluator import (
    ForTuple,
    ViewInstance,
    binding_scope,
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
    binding_of,
    normalize_path,
)
from .xml_model import (
    DocRoot,
    DocumentStore,
    QualifiedPath,
    XmlTree,
    copy_tree,
    locate,
    serialize,
    value_equal,
)


# ----------------------------------------------------------------------
# Abstract form

@dataclass(frozen=True)
class AbstractUpdate:
    """An update reduced to full paths: context, condition, target, action.

    ``common_prefix`` is the maximal common front part of the full
    condition and target paths; it identifies the context under which
    condition and target trees pair up.
    """

    common_prefix: QualifiedPath
    cond_path: QualifiedPath
    cond_value: str
    target_path: QualifiedPath
    action: object


def abstract_form(stmt: UpdateStatement) -> AbstractUpdate:
    """Expand a view-level statement's condition and target paths through
    its bindings; the condition slot takes its one string-equality atom."""
    if stmt.level != "view":
        raise LevelMismatch("the abstract form is defined for view-level updates")
    (atom,) = stmt.conditions
    cond_path = normalize_path(stmt, atom.lhs[0], atom.lhs[1])
    target_path = normalize_path(stmt, stmt.target.var, stmt.target.path)
    common = 0
    if cond_path.root == target_path.root:
        for a, b in zip(cond_path.steps, target_path.steps):
            if a != b:
                break
            common += 1
    prefix = QualifiedPath(target_path.root, target_path.steps[:common])
    return AbstractUpdate(prefix, cond_path, atom.value, target_path, stmt.action)


# ----------------------------------------------------------------------
# Edits

@dataclass(frozen=True)
class Inserted:
    parent_id: int
    tree: XmlTree  # the statement's payload; a fresh-id copy of it is placed


@dataclass(frozen=True)
class Deleted:
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

@dataclass
class PlannedOp:
    """One collapsed application of the statement's action, resolved to edits.

    ``target`` is the node the action applies to, and the collapse key: a
    statement carries exactly one action, so its node id is the whole key.
    For a binding deletion the target is the removed tree itself.
    ``parent`` is the node the ``edits`` land under.  An application that
    matches nothing keeps its place in the plan, with no edits.
    """

    target: XmlTree
    parent: XmlTree
    edits: list[Edit]


def _parent_finder(
    binding: Binding, store: DocumentStore
) -> Callable[[ForTuple], Optional[XmlTree]]:
    """A function from a for-clause tuple to the parent of the node
    ``binding`` binds in it, or None when that node is a document root.

    The parent lies one step above the bound node on the binding's path, so
    only the nodes at that step are read, once per context node, never the
    whole store.  (A relative binding path is never empty.)
    """
    context, steps = binding_scope(binding, store)
    if not steps:
        return lambda _tup: None
    parents: dict[int, XmlTree] = {}  # child id -> parent, per context read
    read: set[int] = set()

    def parent_of(tup: ForTuple) -> Optional[XmlTree]:
        ctx = context(tup)
        if ctx.node_id not in read:
            read.add(ctx.node_id)
            for parent in locate(ctx, steps[:-1]):
                for child in parent.children or ():
                    parents[child.node_id] = parent
        return parents.get(tup[binding.var].node_id)

    return parent_of


def _as_source_statement(
    stmt: UpdateStatement, instance: ViewInstance
) -> tuple[UpdateStatement, DocumentStore]:
    """The one-binding statement a view-level statement's abstract form
    describes, over the instance held as a one-document store.

    The variable ranges over the common front part of the condition and
    target paths; the condition and the target are their remainders under
    it.  One exception, forced by the source translation of root-level
    wrapper deletion: when the deleted label is the very step the condition
    path descends through, the variable ranges over the deleted children and
    each one whose own subtree satisfies the condition is deleted as a
    binding (deleting every wrapper tree as soon as one matched would not
    survive re-evaluation of the translated update).
    """
    ab = abstract_form(stmt)
    cond_steps = ab.cond_path.steps
    prefix = ab.common_prefix.steps
    target = UpdateTarget("c", ab.target_path.steps[len(prefix):])
    action = stmt.action
    if (
        isinstance(action, DeleteLabel)
        and len(ab.target_path.steps) == 1
        and cond_steps[1:2] == (action.label,)
    ):
        prefix = cond_steps[:2]
        target = UpdateTarget("c", (), parent_step=True)
        action = DeleteBinding("c")
    view = prefix[0]
    store = DocumentStore()
    store.add(view, instance.tree)
    binding = Binding("c", QualifiedPath(DocRoot(view), prefix))
    cond = PathEqString(("c", cond_steps[len(prefix):]), ab.cond_value)
    return UpdateStatement("source", (binding,), (cond,), target, action), store


def _source_applications(
    stmt: UpdateStatement, store: DocumentStore
) -> Iterator[tuple[XmlTree, XmlTree]]:
    """Per condition-satisfying for-clause tuple, act on every target tree.

    Yields (target, parent) pairs, as ``_resolve`` takes them, for the trees
    ``target_trees`` reaches; but ``x/..`` (or a binding deletion) reaches
    the parent of the node bound to ``x``, read off its binding path.
    """
    action, target = stmt.action, stmt.target
    deletes_binding = isinstance(action, DeleteBinding)
    parent_of = None  # built at the first tuple that needs it
    for tup in satisfying_tuples(stmt.bindings, store, stmt.conditions):
        if deletes_binding or (target.parent_step and not target.path):
            var = action.var if deletes_binding else target.var
            if parent_of is None:
                parent_of = _parent_finder(binding_of(stmt.bindings, var), store)
            parent = parent_of(tup)
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


def check_level(stmt: UpdateStatement, target) -> None:
    """Raise ``LevelMismatch`` unless a source-level statement is applied to
    a DocumentStore and a view-level one to a ViewInstance."""
    if stmt.level == "source":
        if not isinstance(target, DocumentStore):
            raise LevelMismatch("a source-level update applies to a DocumentStore")
    elif not isinstance(target, ViewInstance):
        raise LevelMismatch("a view-level update applies to a ViewInstance")


def plan_update(stmt: UpdateStatement, target) -> list[PlannedOp]:
    """Plan all applications against the pre-edit state, first one per node."""
    check_level(stmt, target)
    if stmt.level == "view":
        stmt, target = _as_source_statement(stmt, target)
    plan: dict[int, PlannedOp] = {}
    for node, parent in _source_applications(stmt, target):
        if node.node_id not in plan:
            plan[node.node_id] = PlannedOp(
                node, parent, _resolve(node, parent, stmt.action)
            )
    return list(plan.values())


# ----------------------------------------------------------------------
# Execution

def _mutate(parent: XmlTree, edit: Edit) -> None:
    """Replay one edit: append a fresh-id copy of an insertion's tree, or
    remove a deleted child in place.

    The child is found by identity when the logged subtree itself is back
    under its parent (a minimality probe's redo), else by id (a replay onto
    an id-preserving copy of the store); a child that is not there is left
    alone.
    """
    if isinstance(edit, Inserted):
        parent.children = (parent.children or []) + [copy_tree(edit.tree)]
        return
    children = parent.children or []
    try:
        at = children.index(edit.tree)
    except ValueError:
        found = (i for i, c in enumerate(children) if c.node_id == edit.node_id)
        at = next(found, None)
        if at is None:
            return
    del children[at]


def _deletions(plan: list[PlannedOp]) -> tuple[list[XmlTree], set[int]]:
    """The parents a plan deletes children of, each once, and the ids of
    the children it deletes."""
    parents: dict[int, XmlTree] = {}
    gone: set[int] = set()
    for op in plan:
        for edit in op.edits:
            if isinstance(edit, Deleted):
                parents[edit.parent_id] = op.parent
                gone.add(edit.node_id)
    return list(parents.values()), gone


def execute_plan(plan: list[PlannedOp]) -> list[Edit]:
    """Perform a plan's edits and return them as the edit log, in plan order.

    Insertions are appended one by one.  Deletions are grouped by parent,
    and each parent's child list is filtered once for all of them; a child
    is removed by its id alone, so the result is that of removing them one
    at a time.  Each edited parent is given a new child list and no list is
    edited in place, so a caller that kept the old lists can put them back.
    """
    edits: list[Edit] = []
    for op in plan:
        for edit in op.edits:
            if isinstance(edit, Inserted):
                _mutate(op.parent, edit)
        edits.extend(op.edits)
    parents, gone = _deletions(plan)
    for parent in parents:
        parent.children = [c for c in parent.children or [] if c.node_id not in gone]
    return edits


def apply_update(stmt: UpdateStatement, target) -> list[Edit]:
    """Apply a statement to a DocumentStore or ViewInstance, mutating it.

    Per context tuple: if some condition tree satisfies the where clause,
    the action is applied to every tree at the target path under that
    context.  Duplicate (node, action) applications collapse to the first.
    An unsatisfiable condition leaves the target unchanged and the log
    empty, and so does a statement that fails: every error is raised while
    planning, before any edit lands.
    """
    return execute_plan(plan_update(stmt, target))


def replay_edits(edits: list[Edit], store: DocumentStore) -> None:
    """Re-apply a recorded edit log, one edit at a time, to a store holding
    the logged parents' ids: an id-preserving copy of the pre-edit store, or
    the updated store itself with edits undone in place."""
    for edit in edits:
        parent = store.find_node(edit.parent_id)
        if parent is None:
            raise TargetIsRoot(f"edit parent {edit.parent_id} not found in store")
        _mutate(parent, edit)
