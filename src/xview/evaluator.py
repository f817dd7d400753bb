"""Evaluate view definitions against document stores.

Evaluation follows nested-loop semantics: each for-clause binding
enumerates, in document order, the subtrees its path locates within the
context fixed by the earlier bindings.  Every condition-satisfying tuple
yields exactly one wrapper tree under the view root, and every node copied
into the view remembers the source node it came from (provenance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class ForTuple:
    """One variable assignment produced by the for-clause.

    Copies of the same source binding in different tuples share the source
    node (and hence its identifier); there is no deduplication of
    value-equal bindings.
    """

    assignments: dict[str, XmlTree]

    def __getitem__(self, var: str) -> XmlTree:
        return self.assignments[var]


@dataclass
class Provenance:
    """Bookkeeping from tuples to wrapper trees and from copies to sources.

    ``etree_ids[i]`` is the wrapper node built for the i-th satisfying
    tuple (a bijection).  ``source_of`` maps every node id copied into the
    view to the source node id it was copied from, and ``gamma_expr`` maps
    each copied top-level child of a wrapper to the index of the return
    expression that selected it.
    """

    etree_ids: list[int] = field(default_factory=list)
    source_of: dict[int, int] = field(default_factory=dict)
    gamma_expr: dict[int, int] = field(default_factory=dict)


@dataclass
class ViewInstance:
    """A materialized evaluation result: the tree plus its provenance."""

    tree: XmlTree
    provenance: Provenance
    tuples: list[ForTuple]  # the condition-satisfying tuples, in order


RootResolver = Callable[[QualifiedPath], list[XmlTree]]


def store_resolver(store: DocumentStore) -> RootResolver:
    """Resolve doc(...)-rooted paths against a document store."""

    def resolve(qp: QualifiedPath) -> list[XmlTree]:
        if not isinstance(qp.root, DocRoot):
            raise LevelMismatch("this statement must be document-rooted")
        tree = store.get(qp.root.doc)
        if tree.label != qp.steps[0]:
            raise RootLabelMismatch(
                f"document {qp.root.doc!r} has root {tree.label!r}, "
                f"path starts with {qp.steps[0]!r}"
            )
        return locate(tree, qp.steps[1:])

    return resolve


def enumerate_bindings(
    bindings: Iterable[Binding], resolve_root: RootResolver
) -> list[ForTuple]:
    """Produce all for-clause tuples in nested-loop order."""
    tuples: list[dict[str, XmlTree]] = [{}]
    for binding in bindings:
        expanded: list[dict[str, XmlTree]] = []
        for partial in tuples:
            source = binding.source
            if isinstance(source.root, VarRoot):
                candidates = locate(partial[source.root.var], source.steps)
            else:
                candidates = resolve_root(source)
            for node in candidates:
                assignment = dict(partial)
                assignment[binding.var] = node
                expanded.append(assignment)
        tuples = expanded
    return [ForTuple(t) for t in tuples]


def fortup(view: ViewDef, store: DocumentStore) -> list[ForTuple]:
    """All tuples of the view's for-clause, before condition filtering."""
    return enumerate_bindings(view.bindings, store_resolver(store))


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


def build_etree(
    returns: Iterable[ReturnExpr], tup: ForTuple, wrapper: str
) -> tuple[XmlTree, dict[int, int], dict[int, int]]:
    """Build one wrapper tree for a tuple.

    Children are deep copies of every tree located by each return
    expression: expression order outer, document order inner.  A bare
    ``{x}`` expression contributes a copy of the binding itself, root label
    included.  Returns the wrapper node, a copy-id -> source-id map, and a
    child-id -> return-expression-index map.
    """
    source_of: dict[int, int] = {}
    gamma_expr: dict[int, int] = {}
    children: list[XmlTree] = []
    for idx, ret in enumerate(returns):
        for found in locate(tup[ret.var], ret.gamma):
            copied = copy_tree(found, id_map=source_of)
            gamma_expr[copied.node_id] = idx
            children.append(copied)
    return XmlTree(wrapper, children=children), source_of, gamma_expr


def evaluate_view(view: ViewDef, store: DocumentStore) -> ViewInstance:
    """Materialize the view against a store.

    Pure up to fresh identifier assignment: evaluating twice yields
    value-equal instances with isomorphic provenance.
    """
    provenance = Provenance()
    satisfying: list[ForTuple] = []
    children: list[XmlTree] = []
    for tup in fortup(view, store):
        if not eval_condition(view.conditions, tup):
            continue
        etree, source_of, gamma_expr = build_etree(view.returns, tup, view.wrapper)
        provenance.etree_ids.append(etree.node_id)
        provenance.source_of.update(source_of)
        provenance.gamma_expr.update(gamma_expr)
        satisfying.append(tup)
        children.append(etree)
    root = XmlTree(view.view_root, children=children)
    return ViewInstance(root, provenance, satisfying)
