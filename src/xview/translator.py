"""Translate view-level updates into source-level updates.

The pipeline is: reduce the view update to its context form (the updater's
``context_form``, the one rule for where its condition pairs with its
target), map the form's full view paths back to for-clause expressions
through the return clause, then match the shape against the four
translatable cases:

  T1  the update stays inside one selected subtree: condition and target
      map to the same variable;
  T2  condition and target map to different variables, but the condition
      path is one entire side of a join atom and the target variable is a
      variable of that atom;
  T3  a whole returned subtree is deleted from the wrapper level of a view
      whose return clause uses a single variable;
  T4  a whole wrapper tree is deleted at the view root: the source binding
      itself is removed.

Everything else is rejected with a reason code.  A T1 update whose
condition and target share a step inside the returned subtree pairs them
under each node at that step, not under the whole subtree: the translation
binds those nodes to a variable of their own and puts the condition and
the target on it.  A translation must also
pass one path guard.  The rewritten path is the target path (T1, T2) or the
deleted path (T3, T4); it is checked against three lists of source paths,
in this order:

  where     the paths of the translated where clause.  Trips when one is a
            prefix or an extension of the rewritten path: the update would
            change the trees the conditions test, or the string values they
            compare (TargetPrefixOfWherePath).
  returns   the paths of the return expressions other than the one the
            update goes through.  Same test: a source tree exposed twice
            would show the update in both copies, while the view-level
            update edits only one (OverlappingExposure).
  bindings  the binding paths at or below the level where the update adds
            or removes trees.  Trips when the path of those trees is a
            prefix of one: the target path plus the inserted or deleted
            label for T1 and T2, the deleted path for T3 and T4.  Rows of
            that variable would vanish or multiply on re-evaluation
            (BindingPathAffected).

For T4, paths rooted at the deleted variable or at a variable chained
below it are left out of every list: all their rows go with the deleted
binding.  A T2 candidate whose variables no join links is rejected
(CondTargetDifferentVarsNoJoin) after the where check and before the other
two.  Last, every path the translation adds to the view's for-clause and
where clause, and its target path, must name each step once, as the
statement grammar requires.  The return's path and the update's path can
share a name (``{x/D/C}`` with ``r/C/D``), and then no statement can write
the translation: it is rejected (SourcePathRepeatsName).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import LevelMismatch, UnmappableName
from .lang import (
    Binding,
    DeleteBinding,
    DeleteLabel,
    InsertTree,
    PathEqPath,
    PathEqString,
    ReturnExpr,
    UpdateStatement,
    UpdateTarget,
    ViewDef,
    atom_sides,
    normalize_path,
    return_last_name,
)
from .updater import context_form
from .xml_model import QualifiedPath, VarRoot, is_prefix


class Case(str, enum.Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"


class ReasonCode(str, enum.Enum):
    InsertionAtWrapperOrRoot = "InsertionAtWrapperOrRoot"
    NoUniqueSourcePlacement = "NoUniqueSourcePlacement"
    ViolatesProduction = "ViolatesProduction"
    NoSpecifiableCondition = "NoSpecifiableCondition"
    CondTargetDifferentVarsNoJoin = "CondTargetDifferentVarsNoJoin"
    TargetPrefixOfWherePath = "TargetPrefixOfWherePath"
    UnmappableName = "UnmappableName"
    MultiVariableReturnRootDeletion = "MultiVariableReturnRootDeletion"
    OverlappingExposure = "OverlappingExposure"
    BindingPathAffected = "BindingPathAffected"
    SourcePathRepeatsName = "SourcePathRepeatsName"


class MappedPath(NamedTuple):
    """A full view path split as root / wrapper / pivot-name / remainder
    and resolved to a for-clause expression.

    ``slot`` is "gamma" when the path reaches into a returned subtree (the
    pivot name selects the return expression), "wrapper" for the wrapper
    level and "root" for the view root; var/gamma/theta are only set for
    the "gamma" slot.  A named tuple: each translation builds two, and a
    tuple is cheaper to build than a frozen dataclass.
    """

    slot: str
    var: str = ""
    gamma: tuple[str, ...] = ()
    theta: tuple[str, ...] = ()


@dataclass(frozen=True)
class Translated:
    statement: UpdateStatement  # the source-level update
    case: Case


@dataclass(frozen=True)
class Rejected:
    reason: ReasonCode
    detail: str


TranslationOutcome = Union[Translated, Rejected]


# ----------------------------------------------------------------------
# Procedure: map full view paths to for-clause expressions

def _find_return(view: ViewDef, name: str) -> Optional[ReturnExpr]:
    for ret in view.returns:
        if return_last_name(view, ret) == name:
            return ret
    return None


def _map_one(view: ViewDef, steps: tuple[str, ...], role: str) -> MappedPath:
    """Resolve a full view path.

    The pivot name right under the wrapper is looked up among the last
    names of the view's return expressions; distinctness of those names
    makes the match unique.  Raises UnmappableName when no expression
    matches.
    """
    if not steps or steps[0] != view.view_root:
        raise UnmappableName(
            f"{role} path does not start at the view root {view.view_root!r}"
        )
    if len(steps) == 1:
        return MappedPath("root")
    if steps[1] != view.wrapper:
        raise UnmappableName(
            f"{role} path {'/'.join(steps)} does not descend through the "
            f"wrapper {view.wrapper!r}"
        )
    if len(steps) == 2:
        return MappedPath("wrapper")
    pivot, theta = steps[2], steps[3:]
    ret = _find_return(view, pivot)
    if ret is None:
        raise UnmappableName(
            f"{role} name {pivot!r} matches no return expression"
        )
    return MappedPath("gamma", ret.var, ret.gamma, theta)


# ----------------------------------------------------------------------
# Translation

def _single_return_var(view: ViewDef) -> Optional[str]:
    vars_used = {ret.var for ret in view.returns}
    if len(vars_used) == 1:
        return next(iter(vars_used))
    return None


def _fresh_var(view: ViewDef, base: str) -> str:
    """The first of ``base``, ``base1``, ``base2``, ... that no binding of
    ``view`` uses."""
    used = {b.var for b in view.bindings}
    name, n = base, 0
    while name in used:
        n += 1
        name = f"{base}{n}"
    return name


def _join_partner_vars(view: ViewDef, cond: MappedPath) -> set[str]:
    """Variables of every join atom one of whose sides equals the mapped
    condition path (compared on fully expanded, variable-free paths)."""
    cond_qp = normalize_path(view, cond.var, cond.gamma + cond.theta)
    partners: set[str] = set()
    for atom in view.conditions:
        if not isinstance(atom, PathEqPath):
            continue
        for side in (atom.lhs, atom.rhs):
            if normalize_path(view, *side) == cond_qp:
                partners.add(atom.lhs[0])
                partners.add(atom.rhs[0])
    return partners


def _guard(
    rewritten: QualifiedPath,
    paths: list[QualifiedPath],
    reason: ReasonCode,
    detail: str,
) -> Optional[Rejected]:
    """Reject when the rewritten path and some path in ``paths`` lie on one
    branch, one a prefix of the other; ``detail`` takes the rewritten path."""
    if any(is_prefix(rewritten, p) or is_prefix(p, rewritten) for p in paths):
        return Rejected(reason, detail.format("/".join(rewritten.steps)))
    return None


def _misplaced_insert(view: ViewDef, label: str, slot: str) -> Rejected:
    """Why an insertion at the wrapper or root level has no translation."""
    if slot == "root":
        if label == view.wrapper:
            return Rejected(
                ReasonCode.NoUniqueSourcePlacement,
                "a new wrapper tree could extend an existing source "
                "context or a newly created one; no unique placement exists",
            )
        return Rejected(
            ReasonCode.InsertionAtWrapperOrRoot,
            f"inserting {label!r} at the view root does not match the "
            f"view structure",
        )
    ret = _find_return(view, label)
    if ret is None:
        return Rejected(
            ReasonCode.InsertionAtWrapperOrRoot,
            f"inserted label {label!r} matches no return expression",
        )
    if not ret.gamma:
        return Rejected(
            ReasonCode.ViolatesProduction,
            f"each wrapper tree holds exactly one {label!r} child (the "
            f"binding itself); inserting another breaks tuple production",
        )
    return Rejected(
        ReasonCode.NoSpecifiableCondition,
        f"no condition can single out which source {ret.var!r} binding "
        f"should receive the new {label!r} tree",
    )


def translate(
    view: ViewDef,
    view_update: UpdateStatement,
) -> TranslationOutcome:
    """Rewrite a view-level update into a source-level one, or reject it.

    One pass maps the context form's paths, decides the case, runs the
    guards and then builds the statement.  The four cases form a whitelist;
    anything outside them is rejected without claiming impossibility beyond
    the argued shapes.  A translated statement starts from the view's
    for-clause and where clause.  When the context form's prefix reaches
    into a returned subtree (``v/e/<pivot>/...``) and the source path to it
    below the return's variable is not empty, one binding over that path
    is added, under a name the view does not use, and the condition and the
    target are put on it.  Otherwise the condition, mapped to the return's
    variable, is appended to the view's where clause, and the update acts
    on the mapped target path with the original action (T1/T2), deletes the
    returned trees from their parents (T3), or deletes the bindings
    themselves (T4).
    """
    if view_update.level != "view":
        raise LevelMismatch("translate expects a view-level update")
    form = context_form(view_update)
    (context,), (atom,), at = form.bindings, form.conditions, form.target
    prefix, action = context.source.steps, form.action
    # a parent step (the root deletion) leaves the prefix's last step
    target_steps = prefix[:-1] if at.parent_step else prefix + at.path
    try:
        cond = _map_one(view, prefix + atom.lhs[1], "condition")
        tgt = _map_one(view, target_steps, "target")
    except UnmappableName as exc:
        return Rejected(ReasonCode.UnmappableName, str(exc))

    if isinstance(action, InsertTree) and tgt.slot != "gamma":
        return _misplaced_insert(view, action.tree.label, tgt.slot)
    if cond.slot != "gamma":
        return Rejected(
            ReasonCode.UnmappableName,
            "the condition path must reach into a returned subtree",
        )
    # the condition as the where clause reads it on the return's variable
    appended = (cond.var, cond.gamma + cond.theta)
    where = [*(side for a in view.conditions for side in atom_sides(a)), appended]

    single = _single_return_var(view)
    chain: set[str] = set()  # variables whose paths the guards leave out
    no_join: Optional[Rejected] = None
    if tgt.slot == "gamma":
        noun = "target path"
        rewritten = normalize_path(view, tgt.var, tgt.gamma + tgt.theta)
        # the action adds or removes children bearing its label
        label = action.label if isinstance(action, DeleteLabel) else action.tree.label
        changed = QualifiedPath(rewritten.root, rewritten.steps + (label,))
        if cond.var == tgt.var:
            case = Case.T1
        elif tgt.var in _join_partner_vars(view, cond):
            case = Case.T2
        else:
            no_join = Rejected(
                ReasonCode.CondTargetDifferentVarsNoJoin,
                f"condition maps to {cond.var!r} and target to "
                f"{tgt.var!r}, and no join atom links them",
            )
        through: Optional[ReturnExpr] = ReturnExpr(tgt.var, tgt.gamma)
        target = UpdateTarget(tgt.var, tgt.gamma + tgt.theta)
    elif tgt.slot == "wrapper":
        if not isinstance(action, DeleteLabel):
            return Rejected(
                ReasonCode.NoUniqueSourcePlacement,
                "wrapper-level deletion must name a child label",
            )
        if single is None:
            return Rejected(
                ReasonCode.MultiVariableReturnRootDeletion,
                "wrapper-level deletion needs a single-variable return clause",
            )
        through = _find_return(view, action.label)
        if through is None:
            return Rejected(
                ReasonCode.UnmappableName,
                f"deleted label {action.label!r} matches no return expression",
            )
        if not through.gamma:
            return Rejected(
                ReasonCode.ViolatesProduction,
                f"deleting the {action.label!r} child would leave wrapper "
                f"trees that tuple production can never yield",
            )
        noun = "deleted path"
        rewritten = normalize_path(view, single, through.gamma)
        changed = rewritten
        case = Case.T3
        target = UpdateTarget(single, through.gamma, parent_step=True)
    else:  # root level: only deleting the wrapper label itself translates,
        # which the context form has made a binding deletion
        if not isinstance(action, DeleteBinding):
            return Rejected(
                ReasonCode.NoUniqueSourcePlacement,
                "a root-level deletion must delete the wrapper label",
            )
        if single is None:
            return Rejected(
                ReasonCode.MultiVariableReturnRootDeletion,
                "root-level wrapper deletion needs a single-variable return clause",
            )
        # every row of the deleted variable and of the variables chained
        # below it goes with the deleted binding
        chain.add(single)
        for b in view.bindings:
            if isinstance(b.source.root, VarRoot) and b.source.root.var in chain:
                chain.add(b.var)
        noun = "deleted path"
        rewritten = normalize_path(view, single)
        changed = rewritten
        case, through = Case.T4, None
        target = UpdateTarget(single, (), parent_step=True)
        action = DeleteBinding(single)

    def outside(var_paths) -> list[QualifiedPath]:
        return [normalize_path(view, v, ns) for v, ns in var_paths if v not in chain]

    # the guard over where, return and binding paths; see the module docstring
    rejected = (
        _guard(
            rewritten,
            outside(where),
            ReasonCode.TargetPrefixOfWherePath,
            noun + " {} is a prefix or an extension of a translated "
            "where-clause path",
        )
        or no_join
        or _guard(
            rewritten,
            outside((r.var, r.gamma) for r in view.returns if r != through),
            ReasonCode.OverlappingExposure,
            "path {} is a prefix or an extension of another return expression's path",
        )
        or _guard(
            changed,
            [
                p
                for p in outside((b.var, ()) for b in view.bindings)
                if len(p.steps) >= len(changed.steps)
            ],
            ReasonCode.BindingPathAffected,
            "the update adds or removes the trees at {}, which another "
            "variable's binding path equals or passes through",
        )
    )
    if rejected:
        return rejected
    bindings, cond_side = view.bindings, appended
    past = tgt.gamma + prefix[3:]  # below the return's variable, to the prefix
    if len(prefix) > 2 and past:
        # condition and target pair under each node the prefix reaches
        var = _fresh_var(view, context.var)
        bindings += (Binding(var, QualifiedPath(VarRoot(tgt.var), past)),)
        cond_side, target = (var, atom.lhs[1]), UpdateTarget(var, at.path)
    # every path the statement adds must be writable: each name once
    added = bindings[len(view.bindings) :]
    written = [(b.source.root.var, b.source.steps) for b in added]
    for var, names in [*written, cond_side, (target.var, target.path)]:
        if len(set(names)) != len(names):
            return Rejected(
                ReasonCode.SourcePathRepeatsName,
                f"the source path {'/'.join((var, *names))} repeats a name, "
                "so no update statement can write it",
            )
    conditions = view.conditions + (PathEqString(cond_side, atom.value),)
    statement = UpdateStatement("source", bindings, conditions, target, action)
    return Translated(statement, case)


def rejection_to_json(rejected: Rejected) -> dict:
    return {
        "translatable": False,
        "reason": rejected.reason.value,
        "detail": rejected.detail,
    }
