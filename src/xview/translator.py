"""Translate view-level updates into source-level updates.

The pipeline is: reduce the view update to its abstract form, map its full
view paths back to for-clause expressions through the return clause, then
classify the shape against the four translatable cases:

  T1  the update stays inside one selected subtree: condition and target
      map to the same variable;
  T2  condition and target map to different variables, but the condition
      path is one entire side of a join atom and the target variable is a
      variable of that atom;
  T3  a whole returned subtree is deleted from the wrapper level of a view
      whose return clause uses a single variable;
  T4  a whole wrapper tree is deleted at the view root: the source binding
      itself is removed.

Everything else is rejected with a reason code.  T1, T2 and T3 also
require a prefix guard: the source path whose trees the update rewrites
must be neither a prefix nor an extension of any path in the translated
where clause, otherwise applying the update would change the very trees
the conditions test, or the string values they compare.  Nor may it be a
prefix or an extension of the path of any return expression other than the
one the update addresses: a source tree exposed twice would show the update
in both copies, while the view-level update edits only one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .errors import LevelMismatch, UnmappableName
from .lang import (
    DeleteBinding,
    DeleteLabel,
    DeleteTree,
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
from .updater import AbstractUpdate, abstract_form
from .xml_model import QualifiedPath, is_prefix


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


@dataclass(frozen=True)
class MappedPath:
    """A full view path split as root / wrapper / pivot-name / remainder
    and resolved to a for-clause expression.

    ``slot`` is "gamma" when the path reaches into a returned subtree (the
    pivot name selects the return expression), "wrapper" for the wrapper
    level and "root" for the view root; var/gamma/theta are only set for
    the "gamma" slot.
    """

    slot: str
    var: str = ""
    gamma: tuple[str, ...] = ()
    theta: tuple[str, ...] = ()


@dataclass(frozen=True)
class Mapping:
    cond: MappedPath
    target: MappedPath


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


def _map_one(view: ViewDef, qp: QualifiedPath, role: str) -> MappedPath:
    steps = qp.steps
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


def map_paths(view: ViewDef, abstract: AbstractUpdate) -> Mapping:
    """Resolve the abstract update's condition and target paths.

    The pivot name right under the wrapper is looked up among the last
    names of the view's return expressions; distinctness of those names
    makes the match unique.  Raises UnmappableName when no expression
    matches.
    """
    return Mapping(
        cond=_map_one(view, abstract.cond_path, "condition"),
        target=_map_one(view, abstract.target_path, "target"),
    )


# ----------------------------------------------------------------------
# Classification

def _where_paths(view: ViewDef, appended: tuple[str, tuple[str, ...]]) -> list[QualifiedPath]:
    """Every path in the would-be translated where clause, fully expanded."""
    paths = []
    for atom in view.conditions:
        for var, names in atom_sides(atom):
            paths.append(normalize_path(view, var, names))
    paths.append(normalize_path(view, appended[0], appended[1]))
    return paths


def _guard_trips(
    view: ViewDef,
    rewritten: QualifiedPath,
    appended: tuple[str, tuple[str, ...]],
) -> bool:
    """True when the rewritten path and some where-clause path lie on one
    branch: either the update rewrites a compared tree, or it edits inside
    one and so changes its string value."""
    return any(
        is_prefix(rewritten, w) or is_prefix(w, rewritten)
        for w in _where_paths(view, appended)
    )


def _exposed_elsewhere(
    view: ViewDef, rewritten: QualifiedPath, through: ReturnExpr
) -> bool:
    """True when a return expression other than ``through`` exposes trees on
    the rewritten path's branch: a source edit there also changes that
    expression's copies, which the view-level update leaves alone."""
    others = [
        normalize_path(view, r.var, r.gamma) for r in view.returns if r != through
    ]
    return any(is_prefix(rewritten, o) or is_prefix(o, rewritten) for o in others)


def _overlap(rewritten: QualifiedPath) -> tuple[ReasonCode, str]:
    return (
        ReasonCode.OverlappingExposure,
        f"path {'/'.join(rewritten.steps)} is a prefix or an extension of "
        f"another return expression's path",
    )


def _single_return_var(view: ViewDef) -> Optional[str]:
    vars_used = {ret.var for ret in view.returns}
    if len(vars_used) == 1:
        return next(iter(vars_used))
    return None


def _join_partner_vars(view: ViewDef, cond: MappedPath) -> set[str]:
    """Variables of every join atom one of whose sides equals the mapped
    condition path (compared on fully expanded, variable-free paths)."""
    cond_qp = normalize_path(view, cond.var, cond.gamma + cond.theta)
    partners: set[str] = set()
    for atom in view.conditions:
        if not isinstance(atom, PathEqPath):
            continue
        for side in (atom.lhs, atom.rhs):
            if normalize_path(view, side[0], side[1]) == cond_qp:
                partners.add(atom.lhs[0])
                partners.add(atom.rhs[0])
    return partners


def classify(
    view: ViewDef,
    abstract: AbstractUpdate,
    mapping: Mapping,
) -> Union[Case, tuple[ReasonCode, str]]:
    """Decide the translation case, or the reason no translation is emitted.

    The four cases form a whitelist; anything outside them is rejected
    without claiming impossibility beyond the argued shapes.
    """
    action = abstract.action
    tslot = mapping.target.slot

    if isinstance(action, InsertTree) and tslot in ("wrapper", "root"):
        label = action.tree.label
        if tslot == "root":
            if label == view.wrapper:
                return (
                    ReasonCode.NoUniqueSourcePlacement,
                    "a new wrapper tree could extend an existing source "
                    "context or a newly created one; no unique placement exists",
                )
            return (
                ReasonCode.InsertionAtWrapperOrRoot,
                f"inserting {label!r} at the view root does not match the "
                f"view structure",
            )
        ret = _find_return(view, label)
        if ret is None:
            return (
                ReasonCode.InsertionAtWrapperOrRoot,
                f"inserted label {label!r} matches no return expression",
            )
        if not ret.gamma:
            return (
                ReasonCode.ViolatesProduction,
                f"each wrapper tree holds exactly one {label!r} child (the "
                f"binding itself); inserting another breaks tuple production",
            )
        return (
            ReasonCode.NoSpecifiableCondition,
            f"no condition can single out which source {ret.var!r} binding "
            f"should receive the new {label!r} tree",
        )

    if mapping.cond.slot != "gamma":
        return (
            ReasonCode.UnmappableName,
            "the condition path must reach into a returned subtree",
        )

    appended = (mapping.cond.var, mapping.cond.gamma + mapping.cond.theta)

    if tslot == "gamma":
        target_qp = normalize_path(
            view, mapping.target.var, mapping.target.gamma + mapping.target.theta
        )
        if _guard_trips(view, target_qp, appended):
            return (
                ReasonCode.TargetPrefixOfWherePath,
                f"target path {'/'.join(target_qp.steps)} is a prefix or an "
                f"extension of a translated where-clause path",
            )
        if mapping.cond.var == mapping.target.var:
            case = Case.T1
        elif mapping.target.var in _join_partner_vars(view, mapping.cond):
            case = Case.T2
        else:
            return (
                ReasonCode.CondTargetDifferentVarsNoJoin,
                f"condition maps to {mapping.cond.var!r} and target to "
                f"{mapping.target.var!r}, and no join atom links them",
            )
        through = ReturnExpr(mapping.target.var, mapping.target.gamma)
        if _exposed_elsewhere(view, target_qp, through):
            return _overlap(target_qp)
        return case

    single = _single_return_var(view)
    if tslot == "wrapper":
        if isinstance(action, DeleteLabel):
            if single is None:
                return (
                    ReasonCode.MultiVariableReturnRootDeletion,
                    "wrapper-level deletion needs a single-variable return clause",
                )
            ret = _find_return(view, action.label)
            if ret is None:
                return (
                    ReasonCode.UnmappableName,
                    f"deleted label {action.label!r} matches no return expression",
                )
            if not ret.gamma:
                return (
                    ReasonCode.ViolatesProduction,
                    f"deleting the {action.label!r} child would leave wrapper "
                    f"trees that tuple production can never yield",
                )
            deleted_qp = normalize_path(view, single, ret.gamma)
            if _guard_trips(view, deleted_qp, appended):
                return (
                    ReasonCode.TargetPrefixOfWherePath,
                    f"deleted path {'/'.join(deleted_qp.steps)} is a prefix or "
                    f"an extension of a translated where-clause path",
                )
            if _exposed_elsewhere(view, deleted_qp, ret):
                return _overlap(deleted_qp)
            return Case.T3
        return (
            ReasonCode.NoUniqueSourcePlacement,
            "wrapper-level deletion must name a child label",
        )

    # root level
    if isinstance(action, DeleteLabel) and action.label == view.wrapper:
        if single is None:
            return (
                ReasonCode.MultiVariableReturnRootDeletion,
                "root-level wrapper deletion needs a single-variable return clause",
            )
        return Case.T4
    if isinstance(action, (DeleteTree, DeleteLabel)):
        return (
            ReasonCode.NoUniqueSourcePlacement,
            "a root-level deletion must delete the wrapper label",
        )
    return (ReasonCode.UnmappableName, "unsupported root-level update shape")


# ----------------------------------------------------------------------
# Translation

def translate(
    view: ViewDef,
    view_update: UpdateStatement,
) -> TranslationOutcome:
    """Rewrite a view-level update into a source-level one, or reject it.

    A translated statement copies the view's for-clause verbatim, appends
    the mapped condition to the end of the view's where clause, and updates
    the mapped target path with the original action (T1/T2), deletes the
    returned trees from their parents (T3), or deletes the bindings
    themselves (T4).
    """
    if view_update.level != "view":
        raise LevelMismatch("translate expects a view-level update")
    abstract = abstract_form(view_update)
    try:
        mapping = map_paths(view, abstract)
    except UnmappableName as exc:
        return Rejected(ReasonCode.UnmappableName, str(exc))

    outcome = classify(view, abstract, mapping)
    if isinstance(outcome, tuple):
        return Rejected(*outcome)

    appended = PathEqString(
        (mapping.cond.var, mapping.cond.gamma + mapping.cond.theta),
        abstract.cond_value,
    )
    conditions = view.conditions + (appended,)

    if outcome in (Case.T1, Case.T2):
        target = UpdateTarget(
            mapping.target.var, mapping.target.gamma + mapping.target.theta
        )
        action = abstract.action
    elif outcome is Case.T3:
        ret = _find_return(view, abstract.action.label)
        target = UpdateTarget(ret.var, ret.gamma, parent_step=True)
        action = DeleteLabel(abstract.action.label)
    else:  # T4
        var = _single_return_var(view)
        target = UpdateTarget(var, (), parent_step=True)
        action = DeleteBinding(var)

    statement = UpdateStatement("source", view.bindings, conditions, target, action)
    return Translated(statement, outcome)


def rejection_to_json(rejected: Rejected) -> dict:
    return {
        "translatable": False,
        "reason": rejected.reason.value,
        "detail": rejected.detail,
    }
