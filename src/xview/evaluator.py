"""Evaluate view definitions against document stores.

Evaluation follows nested-loop semantics: each for-clause binding
enumerates, in document order, the subtrees its path locates within the
context node ``binding_scope`` names, located once per distinct such node
(not once per partial tuple).  Every condition-satisfying tuple yields
exactly one wrapper tree under the view root, built over the trees its
return expressions locate: fresh-id copies of them, or, for a reader that
copies a row only before it edits one, the sources' own trees.

The where clause has one statement of its semantics, ``eval_condition``,
and one way of applying it to many tuples: a pass per binding level that
decides some atom, the first level that binds all its variables.  A pass
tests a join atom, one side on its level's variable and the other on an
earlier one, through an index built for that atom, from each string value
to the level's nodes whose side holds it, so each join atom reads a
distinct bound node's side once and a tuple costs a set lookup.  It
decides every other atom, which reads only its level's node, with
``eval_condition`` once per distinct such node (per tuple where a tuple
binds one variable).  The passes run in three places.
``enumerate_bindings`` can take the where clause: it drops a partial tuple
that fails an atom such as ``x/title="t03"`` before the later bindings
extend it (predicate pushdown).  An atom decided only at the last level,
such as a join's ``x/title=z/title``, is left to its caller,
``satisfying_tuples``, which runs that level's pass on the full cross
product a join still enumerates.
``where_holds`` runs every level's pass on tuples of the whole for-clause,
for a reader that enumerated them itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import LevelMismatch, RootLabelMismatch, TupleBudgetExceeded
from .lang import (
    Binding,
    ConditionAtom,
    PathEqString,
    ReturnExpr,
    ViewDef,
    atom_sides,
)
from .xml_model import (
    DocRoot,
    DocumentStore,
    VarRoot,
    XmlTree,
    _collector_deferred,
    copy_tree,
    locate,
    string_value,
)


# The most tuples one binding level may hold.  An unlinked cross product is
# built in full, at several hundred bytes per tuple, so past this a level
# raises TupleBudgetExceeded instead of exhausting the host's memory; the
# benchmark's join session builds 10,000 tuples.
TUPLE_BUDGET = 1_000_000

# One variable assignment produced by the for-clause.  Copies of the same
# source binding in different tuples share the source node (and hence its
# identifier); there is no deduplication of value-equal bindings.
ForTuple = dict[str, XmlTree]


@dataclass
class ViewInstance:
    """A materialized evaluation result: the tree plus its tuples.

    Until an update edits the instance, the i-th wrapper tree under the
    root is the one built for ``tuples[i]``.  An update edits only the
    tree: ``tuples`` stays as evaluated.
    """

    tree: XmlTree
    tuples: list[ForTuple]  # the condition-satisfying tuples, in order


def binding_scope(
    binding: Binding, store: DocumentStore
) -> tuple[Callable[[ForTuple], XmlTree], tuple[str, ...]]:
    """Where a binding's path is evaluated from, as every reader takes it: a
    function from the partial tuple of the earlier bindings to the context
    node, and the path's steps below that node."""
    source = binding.source
    if isinstance(source.root, VarRoot):
        return operator.itemgetter(source.root.var), source.steps
    if not isinstance(source.root, DocRoot):
        raise LevelMismatch("this statement must be document-rooted")
    root = store.get(source.root.doc)
    if root.label != source.steps[0]:
        raise RootLabelMismatch(
            f"document {source.root.doc!r} has root {root.label!r}, "
            f"path starts with {source.steps[0]!r}"
        )
    return (lambda _partial: root), source.steps[1:]


def bind_level(
    binding: Binding, partials: list[ForTuple], store: DocumentStore
) -> list[ForTuple]:
    """One level of the nested loop: extend each partial tuple, in order, by
    every node the binding's path locates from its ``binding_scope`` context,
    located once per distinct context node.  The scope is resolved first, so
    a level with no partial tuple still raises an unknown document or a root
    label mismatch, whatever the data.  Every enumeration of tuples goes
    through here or, for a level whose nodes are the same for every
    partial, through ``check_product`` first, so before a partial would
    extend the level past ``TUPLE_BUDGET`` tuples, ``TupleBudgetExceeded`` is
    raised, naming the bindings and the count reached."""
    context, steps = binding_scope(binding, store)
    located: dict[XmlTree, list[XmlTree]] = {}
    expanded: list[ForTuple] = []
    budget = TUPLE_BUDGET
    for partial in partials:
        ctx = context(partial)
        nodes = located.get(ctx)
        if nodes is None:
            nodes = located[ctx] = locate(ctx, steps)
        if len(expanded) + len(nodes) > budget:
            raise _over_budget(partial, binding.var, len(expanded), len(nodes))
        for node in nodes:
            assignment = dict(partial)
            assignment[binding.var] = node
            expanded.append(assignment)
    return expanded


def check_product(partials: list[ForTuple], var: str, width: int) -> None:
    """Raise ``TupleBudgetExceeded`` as ``bind_level`` would, at the same
    partial and with the same message, on extending ``partials`` by
    ``width`` nodes each under ``var``: the check for a level whose nodes
    are the same for every partial, made before it is built."""
    if width and len(partials) * width > TUPLE_BUDGET:
        fit = TUPLE_BUDGET // width  # the partials that fit in full
        raise _over_budget(partials[fit], var, fit * width, width)


def _over_budget(
    partial: ForTuple, var: str, reached: int, adding: int
) -> TupleBudgetExceeded:
    """The error for a level of ``reached`` tuples that ``partial``, bound
    on by ``var``, would extend by ``adding`` past ``TUPLE_BUDGET``."""
    names = ", ".join([*partial, var])
    return TupleBudgetExceeded(
        f"the bindings {names} would enumerate more than {TUPLE_BUDGET:,} "
        f"tuples ({reached:,} reached, the next partial tuple adds {adding:,})"
    )


def _by_level(
    atoms: Sequence[ConditionAtom], bindings: Sequence[Binding]
) -> dict[int, list[ConditionAtom]]:
    """Per level deciding some atom, in level order, its atoms in clause
    order.  An atom is decided at the first binding level that binds all its
    variables; one over a variable no binding binds, at the last level, so
    the caller's test reports it."""
    if len(bindings) == 1:
        return {0: list(atoms)}
    last = len(bindings) - 1
    level = {binding.var: i for i, binding in enumerate(bindings)}
    levels: dict[int, list[ConditionAtom]] = {}
    for atom in atoms:
        at = max(level.get(var, last) for var, _ in atom_sides(atom))
        levels.setdefault(at, []).append(atom)
    return dict(sorted(levels.items()))


def enumerate_bindings(
    bindings: Sequence[Binding],
    store: DocumentStore,
    atoms: Sequence[ConditionAtom] = (),
) -> list[ForTuple]:
    """Produce the for-clause tuples in nested-loop order; doc(...)-rooted
    paths are resolved against ``store``.

    Without ``atoms`` every tuple is produced.  With them, each atom whose
    variables are all bound before the last level is tested at the first
    level that binds them, and the partial tuples failing it are dropped
    before the later bindings extend them, so the tuples returned are the
    full enumeration less those failing such an atom, in the same order.
    The atoms decided only at the last level are left to the caller
    (``satisfying_tuples``): testing them here would save no extension, and
    a join view keeps returning its whole cross product.  Every binding is
    resolved (``bind_level``), so its errors do not depend on the data.
    """
    levels = _by_level(atoms, bindings) if atoms else {}
    levels.pop(len(bindings) - 1, None)  # the caller's
    tuples: list[ForTuple] = [{}]
    for i, binding in enumerate(bindings):
        tuples = bind_level(binding, tuples, store)
        if i in levels:
            tuples = _level_pass(tuples, levels[i], binding.var)
    return tuples


def satisfying_tuples(
    bindings: Sequence[Binding],
    store: DocumentStore,
    atoms: Sequence[ConditionAtom],
) -> list[ForTuple]:
    """The for-clause tuples that satisfy every atom, in nested-loop order.

    ``enumerate_bindings`` drops those failing an atom decided before the
    last binding level; the atoms decided only there are tested here, on
    the tuples it returns, by the same per-level pass (``_level_pass``).
    """
    levels = _by_level(atoms, bindings) if atoms else {}
    late = levels.pop(len(bindings) - 1, None)
    early = [atom for level in levels.values() for atom in level]
    tuples = enumerate_bindings(bindings, store, early)
    if late and tuples:
        tuples = _level_pass(tuples, late, bindings[-1].var)
    return tuples


def where_holds(
    bindings: Sequence[Binding], atoms: Sequence[ConditionAtom]
) -> Callable[[list[ForTuple]], list[bool]]:
    """Split a where clause by level once, for tuples of the whole
    for-clause ``bindings``: the function returned gives, per tuple of a
    list, whether it satisfies every atom, running ``_level_pass`` once per
    deciding level, so it decides as ``satisfying_tuples`` does.  Each call
    is a pass of its own: the store may be edited between calls."""
    if not atoms:
        return lambda tuples: [True] * len(tuples)
    levels = _by_level(atoms, bindings)
    passes = [(bindings[i].var, level) for i, level in levels.items()]

    def holds(tuples: list[ForTuple]) -> list[bool]:
        kept = tuples
        for var, level in passes:
            kept = _level_pass(kept, level, var)
        kept_ids = set(map(id, kept))
        return [id(t) in kept_ids for t in tuples]

    return holds


def _level_pass(
    tuples: list[ForTuple], atoms: Sequence[ConditionAtom], var: str
) -> list[ForTuple]:
    """The tuples, in order, that satisfy ``atoms``, which the level of
    ``var`` decides.  A join atom, one side on ``var`` and the other on an
    earlier variable, is tested through an index of its own, from each
    string value to the nodes of ``var`` whose side holds it; a partner
    node's matches are read off it at the node's first lookup, so the atom
    reads each side once per node.  Every other atom reads ``var``'s node
    alone, so ``eval_condition`` decides the rest once per distinct such
    node the joins keep, or on each tuple where a tuple binds one variable."""
    if not tuples or len(tuples[0]) == 1:
        return [t for t in tuples if eval_condition(atoms, t)]
    bound = tuples[0]  # no atom here reads a later variable
    rest: list[ConditionAtom] = []
    for atom in atoms:
        sides = atom_sides(atom)
        if len(sides) == 2 and sides[1][0] == var:
            sides = sides[::-1]  # this level's side first
        # a join atom: the other side on an earlier variable
        if len(sides) == 2 and sides[0][0] == var != sides[1][0] in bound:
            (_, mine), (other, theirs) = sides
            index: dict[str, set[XmlTree]] = {}
            for node in set(map(operator.itemgetter(var), tuples)):
                for value in _located_values(node, mine):
                    index.setdefault(value, set()).add(node)
            matches = _Memo(
                lambda node: set().union(
                    *[index.get(v, ()) for v in _located_values(node, theirs)]
                )
            )
            tuples = [t for t in tuples if t[var] in matches[t[other]]]
        else:
            rest.append(atom)
    if rest:
        holds = _Memo(lambda node: eval_condition(rest, {var: node}))
        tuples = [t for t in tuples if holds[t[var]]]
    return tuples


class _Memo(dict):
    """A dict that makes a missing key's entry with ``make`` at its first
    lookup, and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _located_values(node: XmlTree, names: tuple[str, ...]) -> set[str]:
    """The string values of the subtrees ``names`` locates below ``node``."""
    return {string_value(n) for n in locate(node, names)}


def eval_condition(atoms: Sequence[ConditionAtom], tup: ForTuple) -> bool:
    """Whether one tuple satisfies the where clause ``atoms``: the one
    statement of its semantics, which every pass applies.

    The clause is a conjunction over atoms with existential equality
    semantics: a path=path atom holds iff some located subtree on the left
    and some on the right have equal string values; a path=string atom holds
    iff some located subtree's string value equals the literal, found by
    comparing each in turn and stopping at the first match.  An empty
    relative path denotes the binding itself; an empty conjunction is true.
    A path=string atom over a one-name path, the commonest, reads the
    binding's children in place, as ``locate`` would locate them.
    """
    for atom in atoms:
        var, names = atom.lhs
        if isinstance(atom, PathEqString):
            value = atom.value
            if len(names) == 1:  # locate's one-name case, without the call
                name = names[0]
                for node in tup[var].children or ():
                    if node.label == name and string_value(node) == value:
                        break
                else:  # no located subtree holds the literal
                    return False
                continue
            for node in locate(tup[var], names):
                if string_value(node) == value:
                    break
            else:
                return False
        else:
            lhs = _located_values(tup[var], names)
            var, names = atom.rhs
            if lhs.isdisjoint(_located_values(tup[var], names)):
                return False
    return True


def row_trees(returns: Iterable[ReturnExpr], tup: ForTuple) -> list[XmlTree]:
    """The trees of a tuple's row, uncopied: every tree located by each
    return expression, expression order outer, document order inner.  A bare
    ``{x}`` expression contributes the binding itself, root label included.
    A one-name expression, the commonest, reads the binding's children in
    place, as ``locate`` would locate them.
    """
    row: list[XmlTree] = []
    for ret in returns:
        names = ret.gamma
        if len(names) != 1:
            row += locate(tup[ret.var], names)
            continue
        name = names[0]  # locate's one-name case, without the call
        for child in tup[ret.var].children or ():
            if child.label == name:
                row.append(child)
    return row


def build_etree(returns: Iterable[ReturnExpr], tup: ForTuple, wrapper: str) -> XmlTree:
    """One wrapper tree for a tuple over its row trees (``row_trees``), the
    trees themselves, shared with the store they were located in: only the
    wrapper's child list is its own."""
    return XmlTree(wrapper, children=row_trees(returns, tup))


def view_tree(view: ViewDef, tuples: Iterable[ForTuple]) -> XmlTree:
    """The view root over one wrapper tree per tuple, in order
    (``build_etree``), each over its uncopied row trees."""
    returns, wrapper = view.returns, view.wrapper
    children = [build_etree(returns, t, wrapper) for t in tuples]
    return XmlTree(view.view_root, children=children)


@_collector_deferred
def evaluate_view(
    view: ViewDef, store: DocumentStore, *, copy_rows: bool = True
) -> ViewInstance:
    """Materialize the view against a store.

    Pure up to fresh identifier assignment: evaluating twice yields
    value-equal instances, and the instance shares no node with the store,
    since each wrapper's row trees are copied once ``view_tree`` returns.
    With ``copy_rows=False`` they are not: each wrapper holds the store's
    own row trees, for a reader that leaves them alone, or copies a
    wrapper's rows before it edits inside them.
    The cyclic garbage collector is held off while the call runs and then
    left as it was found (``xml_model._collector_deferred``).
    """
    satisfying = satisfying_tuples(view.bindings, store, view.conditions)
    tree = view_tree(view, satisfying)
    if copy_rows:
        for wrapper in tree.children:
            wrapper.children = [copy_tree(t) for t in wrapper.children]
    return ViewInstance(tree, satisfying)
