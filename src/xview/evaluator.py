"""Evaluate view definitions against document stores.

Evaluation follows nested-loop semantics: each for-clause binding
enumerates, in document order, the subtrees its path locates within the
context fixed by the earlier bindings.  Every condition-satisfying tuple
yields exactly one wrapper tree under the view root, built from fresh-id
copies of the trees its return expressions locate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import LevelMismatch, RootLabelMismatch
from .lang import (
    Binding,
    ConditionAtom,
    PathEqString,
    ReturnExpr,
    ViewDef,
)
from .xml_model import (
    DocRoot,
    DocumentStore,
    QualifiedPath,
    VarRoot,
    XmlTree,
    copy_tree,
    locate,
    string_value,
)


# One variable assignment produced by the for-clause.  Copies of the same
# source binding in different tuples share the source node (and hence its
# identifier); there is no deduplication of value-equal bindings.
ForTuple = dict[str, XmlTree]


@dataclass
class ViewInstance:
    """A materialized evaluation result: the tree plus its tuples.

    Until an update edits the instance, the i-th wrapper tree under the
    root is the one built for ``tuples[i]``.
    """

    tree: XmlTree
    tuples: list[ForTuple]  # the condition-satisfying tuples, in order


def _doc_root(source: QualifiedPath, store: DocumentStore) -> XmlTree:
    if not isinstance(source.root, DocRoot):
        raise LevelMismatch("this statement must be document-rooted")
    tree = store.get(source.root.doc)
    if tree.label != source.steps[0]:
        raise RootLabelMismatch(
            f"document {source.root.doc!r} has root {tree.label!r}, "
            f"path starts with {source.steps[0]!r}"
        )
    return tree


def binding_scope(
    binding: Binding, store: DocumentStore
) -> tuple[Callable[[ForTuple], XmlTree], tuple[str, ...]]:
    """Where a binding's path is evaluated from, as ``bind_level`` reads it:
    a function from the partial tuple of the earlier bindings to the context
    node, and the path's steps below that node."""
    source = binding.source
    if isinstance(source.root, VarRoot):
        return operator.itemgetter(source.root.var), source.steps
    root = _doc_root(source, store)
    return (lambda _partial: root), source.steps[1:]


def bind_level(
    binding: Binding, partials: list[ForTuple], store: DocumentStore
) -> list[ForTuple]:
    """One level of the nested loop: extend each partial tuple, in order, by
    every node the binding's path locates from its context."""
    if not partials:
        return []
    source, var = binding.source, binding.var
    relative = isinstance(source.root, VarRoot)
    if relative:
        context, steps = source.root.var, source.steps
    else:  # a document-rooted path locates the same nodes for every partial
        nodes = locate(_doc_root(source, store), source.steps[1:])
    expanded: list[ForTuple] = []
    for partial in partials:
        for node in locate(partial[context], steps) if relative else nodes:
            assignment = dict(partial)
            assignment[var] = node
            expanded.append(assignment)
    return expanded


def enumerate_bindings(
    bindings: Iterable[Binding], store: DocumentStore
) -> list[ForTuple]:
    """Produce all for-clause tuples in nested-loop order, before condition
    filtering; doc(...)-rooted paths are resolved against ``store``."""
    tuples: list[ForTuple] = [{}]
    for binding in bindings:
        tuples = bind_level(binding, tuples, store)
    return tuples


def _located_values(tup: ForTuple, var: str, names: tuple[str, ...]) -> list[str]:
    return [string_value(n) for n in locate(tup[var], names)]


def eval_condition(atoms: Iterable[ConditionAtom], tup: ForTuple) -> bool:
    """Conjunction over atoms with existential equality semantics.

    A path=path atom holds iff some located subtree on the left and some on
    the right have equal string values; a path=string atom holds iff some
    located subtree's string value equals the literal.  An empty relative
    path denotes the binding itself; an empty conjunction is true.
    """
    for atom in atoms:
        lvals = _located_values(tup, atom.lhs[0], atom.lhs[1])
        if isinstance(atom, PathEqString):
            if atom.value not in lvals:
                return False
        else:
            rvals = _located_values(tup, atom.rhs[0], atom.rhs[1])
            if not set(lvals) & set(rvals):
                return False
    return True


def build_etree(returns: Iterable[ReturnExpr], tup: ForTuple, wrapper: str) -> XmlTree:
    """Build one wrapper tree for a tuple.

    Children are deep copies of every tree located by each return
    expression: expression order outer, document order inner.  A bare
    ``{x}`` expression contributes a copy of the binding itself, root label
    included.
    """
    children = [
        copy_tree(found) for ret in returns for found in locate(tup[ret.var], ret.gamma)
    ]
    return XmlTree(wrapper, children=children)


def evaluate_view(view: ViewDef, store: DocumentStore) -> ViewInstance:
    """Materialize the view against a store.

    Pure up to fresh identifier assignment: evaluating twice yields
    value-equal instances.
    """
    satisfying = [
        t
        for t in enumerate_bindings(view.bindings, store)
        if eval_condition(view.conditions, t)
    ]
    children = [build_etree(view.returns, t, view.wrapper) for t in satisfying]
    return ViewInstance(XmlTree(view.view_root, children=children), satisfying)
