"""Evaluate view definitions against document stores.

Evaluation follows nested-loop semantics: each for-clause binding
enumerates, in document order, the subtrees its path locates within the
context node ``binding_scope`` names, located once per distinct such node
(not once per partial tuple).  A tuple is positional: a plain tuple of the
bound nodes in for-clause order, so entry k is the node of the k-th
binding.  A reader turns variable names into positions (``positions``)
once per pass or plan, never once per tuple.  Every condition-satisfying
tuple yields exactly one wrapper tree under the view root, built over the
trees its return expressions locate: fresh-id copies of them, made as the
wrapper is built, or, for a reader that copies a row only before it edits
one, the sources' own trees.

The where clause has one statement of its semantics, ``eval_condition``,
and one way of applying it to many tuples: a pass per binding level that
decides some atom, the first level that binds all its variables.  A pass
tests a join atom, one side on its level's variable and the other on an
earlier one (the partner), through an index built for that atom, from
each string value to the level's nodes whose side holds it, so each join
atom reads a distinct bound node's side once.  Tuples come in
nested-loop order, so a partner node stays the same over runs of tuples:
its match set is looked up once per run, made off the index at the
partner's first run and kept for its later ones, and a tuple costs one
set lookup.  A pass decides every other atom, which reads only its
level's node, with ``eval_condition`` once per distinct such node (per
tuple where a tuple binds one variable).  The passes run in three places.
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
from typing import Callable, Iterable, Optional, Sequence

from .errors import LevelMismatch, RootLabelMismatch, TupleBudgetExceeded
from .lang import (
    Binding,
    ConditionAtom,
    PathEqString,
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
# built in full, at tens of bytes per tuple, so past this a level
# raises TupleBudgetExceeded instead of exhausting the host's memory; the
# benchmark's join session builds 10,000 tuples.
TUPLE_BUDGET = 1_000_000

# One variable assignment produced by the for-clause: the bound nodes, in
# for-clause order, so entry k is the node bound by the k-th binding, and a
# partial tuple of the first k bindings holds k nodes.  Copies of the same
# source binding in different tuples share the source node (and hence its
# identifier); there is no deduplication of value-equal bindings.
ForTuple = tuple[XmlTree, ...]


@dataclass
class ViewInstance:
    """A materialized evaluation result: the tree plus its tuples.

    Until an update edits the instance, the i-th wrapper tree under the
    root is the one built for ``tuples[i]``.  Each tuple is positional:
    entry k is the node bound by the view's k-th binding.  An update edits
    only the tree: ``tuples`` stays as evaluated.
    """

    tree: XmlTree
    tuples: list[ForTuple]  # the condition-satisfying tuples, in order


def positions(bindings: Sequence[Binding]) -> dict[str, int]:
    """Each variable of a for-clause with its position in the clause's
    tuples: its binding's index."""
    return {binding.var: i for i, binding in enumerate(bindings)}


def binding_scope(
    bindings: Sequence[Binding], i: int, store: DocumentStore
) -> tuple[Callable[[ForTuple], XmlTree], tuple[str, ...]]:
    """Where binding ``i`` of a for-clause evaluates its path from, as every
    reader takes it: a function from the partial tuple of the earlier
    bindings to the context node (the entry at the position of the variable
    the path starts from), and the path's steps below that node."""
    source = bindings[i].source
    if isinstance(source.root, VarRoot):
        at = positions(bindings[:i])[source.root.var]
        return operator.itemgetter(at), source.steps
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
    bindings: Sequence[Binding], i: int, partials: list[ForTuple], store: DocumentStore
) -> list[ForTuple]:
    """One level of the nested loop: extend each partial tuple of the first
    ``i`` bindings, in order, by every node binding ``i``'s path locates
    from its ``binding_scope`` context, located once per distinct context
    node.  The scope is resolved first, so a level with no partial tuple
    still raises an unknown document or a root label mismatch, whatever the
    data.  Every enumeration of tuples goes through here or, for a level
    whose nodes are the same for every partial, through ``check_product``
    first, so before a partial would extend the level past ``TUPLE_BUDGET``
    tuples, ``TupleBudgetExceeded`` is raised, naming the bindings and the
    count reached."""
    context, steps = binding_scope(bindings, i, store)
    located: dict[XmlTree, list[XmlTree]] = {}
    expanded: list[ForTuple] = []
    budget = TUPLE_BUDGET
    for partial in partials:
        ctx = context(partial)
        nodes = located.get(ctx)
        if nodes is None:
            nodes = located[ctx] = locate(ctx, steps)
        if len(expanded) + len(nodes) > budget:
            raise _over_budget(bindings, i, len(expanded), len(nodes))
        for node in nodes:
            expanded.append(partial + (node,))
    return expanded


def check_product(
    bindings: Sequence[Binding], i: int, partials: list[ForTuple], width: int
) -> None:
    """Raise ``TupleBudgetExceeded`` as ``bind_level`` would, at the same
    partial and with the same message, on extending ``partials`` by
    ``width`` nodes each under binding ``i``: the check for a level whose
    nodes are the same for every partial, made before it is built."""
    if width and len(partials) * width > TUPLE_BUDGET:
        fit = TUPLE_BUDGET // width  # the partials that fit in full
        raise _over_budget(bindings, i, fit * width, width)


def _over_budget(
    bindings: Sequence[Binding], i: int, reached: int, adding: int
) -> TupleBudgetExceeded:
    """The error for a level of ``reached`` tuples that a partial, bound on
    by binding ``i``, would extend by ``adding`` past ``TUPLE_BUDGET``."""
    names = ", ".join(binding.var for binding in bindings[: i + 1])
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
    level = positions(bindings)
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
    at = positions(bindings) if levels else {}
    tuples: list[ForTuple] = [()]
    for i, binding in enumerate(bindings):
        tuples = bind_level(bindings, i, tuples, store)
        if i in levels:
            tuples = _level_pass(tuples, levels[i], binding.var, at)
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
        tuples = _level_pass(tuples, late, bindings[-1].var, positions(bindings))
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
    at = positions(bindings)

    def holds(tuples: list[ForTuple]) -> list[bool]:
        kept = tuples
        for var, level in passes:
            kept = _level_pass(kept, level, var, at)
        kept_ids = set(map(id, kept))
        return [id(t) in kept_ids for t in tuples]

    return holds


def _level_pass(
    tuples: list[ForTuple],
    atoms: Sequence[ConditionAtom],
    var: str,
    at: dict[str, int],
) -> list[ForTuple]:
    """The tuples, in order, that satisfy ``atoms``, which the level of
    ``var`` decides; ``at`` gives each variable's position (``positions``).
    A join atom, one side on ``var`` and the other on an earlier variable,
    is tested by ``_join_pass``.  Every other atom reads ``var``'s node
    alone, so ``eval_condition`` decides the rest once per distinct such
    node the joins keep, or on each tuple where a tuple binds one
    variable."""
    if not tuples or len(tuples[0]) == 1:
        return [t for t in tuples if eval_condition(atoms, t, at)]
    k = at[var]
    rest: list[ConditionAtom] = []
    for atom in atoms:
        sides = atom_sides(atom)
        if len(sides) == 2 and sides[1][0] == var:
            sides = sides[::-1]  # this level's side first
        # a join atom: the other side on an earlier variable (no atom here
        # reads a later one)
        if len(sides) == 2 and sides[0][0] == var != sides[1][0] in at:
            (_, mine), (other, theirs) = sides
            tuples = _join_pass(tuples, k, mine, at[other], theirs)
        else:
            rest.append(atom)
    if rest:
        alone = {var: 0}
        holds = {
            node: eval_condition(rest, (node,), alone)
            for node in set(map(operator.itemgetter(k), tuples))
        }
        tuples = [t for t in tuples if holds[t[k]]]
    return tuples


def _join_pass(
    tuples: list[ForTuple],
    k: int,
    mine: tuple[str, ...],
    j: int,
    theirs: tuple[str, ...],
) -> list[ForTuple]:
    """The tuples, in order, that satisfy the join atom ``t[k]/mine =
    t[j]/theirs``.  An index maps each string value to the nodes at
    position ``k`` whose side holds it, so each such node's side is read
    once.  Tuples come in nested-loop order, so the partner node ``t[j]``
    stays the same over runs of tuples: its match set, the nodes its side's
    values index, is looked up once per run, made at the partner's first
    run and kept for a partner that comes back in a later one.  A tuple
    then costs one set lookup."""
    index: dict[str, set[XmlTree]] = {}
    for node in set(map(operator.itemgetter(k), tuples)):
        for value in _located_values(node, mine):
            index.setdefault(value, set()).add(node)
    matches: dict[XmlTree, set[XmlTree]] = {}
    kept: list[ForTuple] = []
    keep = kept.append
    partner = match = None
    for t in tuples:
        if t[j] is not partner:
            partner = t[j]
            match = matches.get(partner)
            if match is None:
                values = _located_values(partner, theirs)
                match = matches[partner] = set().union(
                    *[index.get(v, ()) for v in values]
                )
        if t[k] in match:
            keep(t)
    return kept


def _located_values(node: XmlTree, names: tuple[str, ...]) -> set[str]:
    """The string values of the subtrees ``names`` locates below ``node``.
    A one-name path, the commonest, reads ``node``'s children in place, as
    ``locate`` would locate them."""
    if len(names) == 1:
        name = names[0]
        return {string_value(c) for c in node.children or () if c.label == name}
    return {string_value(n) for n in locate(node, names)}


def eval_condition(
    atoms: Sequence[ConditionAtom], tup: ForTuple, at: dict[str, int]
) -> bool:
    """Whether one tuple satisfies the where clause ``atoms``, each variable
    read at its position ``at`` gives: the one statement of its semantics,
    which every pass applies.

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
                for node in tup[at[var]].children or ():
                    if node.label == name and string_value(node) == value:
                        break
                else:  # no located subtree holds the literal
                    return False
                continue
            for node in locate(tup[at[var]], names):
                if string_value(node) == value:
                    break
            else:
                return False
        else:
            lhs = _located_values(tup[at[var]], names)
            var, names = atom.rhs
            if lhs.isdisjoint(_located_values(tup[at[var]], names)):
                return False
    return True


# A return expression ``{v/γ}`` as a row reads it: the position of ``v`` in
# the view's tuples, and ``γ``.
ReturnRead = tuple[int, tuple[str, ...]]


def return_reads(view: ViewDef) -> list[ReturnRead]:
    """The view's return expressions, in order, as ``row_trees`` reads them."""
    at = positions(view.bindings)
    return [(at[ret.var], ret.gamma) for ret in view.returns]


def row_trees(reads: Iterable[ReturnRead], tup: ForTuple) -> list[XmlTree]:
    """The trees of a tuple's row, uncopied: every tree located by each
    return expression (``return_reads``), expression order outer, document
    order inner.  A bare ``{x}`` expression contributes the binding itself,
    root label included.  A one-name expression, the commonest, reads the
    binding's children in place, as ``locate`` would locate them.
    """
    row: list[XmlTree] = []
    for k, names in reads:
        if len(names) != 1:
            row += locate(tup[k], names)
            continue
        name = names[0]  # locate's one-name case, without the call
        for child in tup[k].children or ():
            if child.label == name:
                row.append(child)
    return row


def build_etree(
    reads: Iterable[ReturnRead],
    tup: ForTuple,
    wrapper: str,
    copy: Optional[Callable[[XmlTree], XmlTree]] = None,
) -> XmlTree:
    """One wrapper tree for a tuple over its row trees (``row_trees``).
    Without ``copy`` they are the trees themselves, shared with the store
    they were located in: only the wrapper's child list is its own.  With
    it, the wrapper holds ``copy`` of each, made as the wrapper is built."""
    row = row_trees(reads, tup)
    return XmlTree(wrapper, None, row if copy is None else list(map(copy, row)))


def view_tree(
    view: ViewDef,
    tuples: Iterable[ForTuple],
    copy: Optional[Callable[[XmlTree], XmlTree]] = None,
) -> XmlTree:
    """The view root over one wrapper tree per tuple, in order
    (``build_etree``), each over its row trees, or over ``copy`` of each."""
    reads, wrapper = return_reads(view), view.wrapper
    children = [build_etree(reads, t, wrapper, copy) for t in tuples]
    return XmlTree(view.view_root, children=children)


@_collector_deferred
def evaluate_view(
    view: ViewDef, store: DocumentStore, *, copy_rows: bool = True
) -> ViewInstance:
    """Materialize the view against a store.

    Pure up to fresh identifier assignment: evaluating twice yields
    value-equal instances, and the instance shares no node with the store,
    since each wrapper is built over fresh-id copies of its row trees
    (``view_tree`` with ``copy_tree``).  The ids are unique and disjoint
    from the store's; their order within the instance is not part of the
    contract.  With ``copy_rows=False`` the rows are not copied: each
    wrapper holds the store's own row trees, for a reader that leaves them
    alone, or copies a wrapper's rows before it edits inside them.
    The cyclic garbage collector is held off while the call runs and then
    left as it was found (``xml_model._collector_deferred``).
    """
    satisfying = satisfying_tuples(view.bindings, store, view.conditions)
    tree = view_tree(view, satisfying, copy_tree if copy_rows else None)
    return ViewInstance(tree, satisfying)
