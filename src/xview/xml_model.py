"""Ordered labeled trees: the XML subset, paths, and (de)serialization.

Documents are modeled as ordered trees whose nodes carry a unique integer
identifier, an element label, and either a text payload or an ordered list
of child trees.  Identifiers never appear in serialized output; equality is
always decided on the identifier-free value tree.
"""

from __future__ import annotations

import functools
import gc
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence
from xml.parsers import expat

from .errors import (
    MalformedXml,
    UnknownDocument,
    UnsupportedFeature,
)

_COUNTER = itertools.count(1)


def fresh_id() -> int:
    """Return the next process-wide node identifier."""
    return next(_COUNTER)


class XmlTree:
    """One node of an ordered labeled tree.

    Exactly one of ``text`` and ``children`` is set.  An element with an
    empty child list is distinct from a text leaf holding the empty string.
    Instances compare by identity; use :func:`value_equal` for comparison on
    value trees.  A node holds its children but no link to its parent, so a
    tree holds no reference cycle and is freed by reference counting alone
    (see ``_collector_deferred``).  A node made without an identifier takes
    the next one of the process-wide counter that ``fresh_id`` reads,
    without that call: every parsed and built node is made here.
    """

    __slots__ = ("node_id", "label", "text", "children")

    def __init__(
        self,
        label: str,
        text: Optional[str] = None,
        children: Optional[list["XmlTree"]] = None,
        node_id: Optional[int] = None,
    ) -> None:
        if (text is None) == (children is None):
            raise ValueError("a node holds either text or children, never both")
        self.node_id = next(_COUNTER) if node_id is None else node_id
        self.label = label
        self.text = text
        self.children = children

    @property
    def is_text(self) -> bool:
        return self.text is not None

    def __repr__(self) -> str:
        if self.is_text:
            return f"XmlTree({self.label}:{self.text!r} #{self.node_id})"
        return f"XmlTree({self.label}[{len(self.children or [])}] #{self.node_id})"


def _collector_deferred(fn):
    """Run ``fn`` with the cyclic garbage collector off, then switch it back
    on if it was on.

    For the calls that enumerate for-clause tuples: a join holds thousands
    of tuple dicts at once, and the collections they would set off walk the
    whole heap yet find nothing, since trees, tuples, plans and edit logs
    hold no reference cycle (``tests/test_collector.py`` checks this).  A
    call made with the collector already off, such as a nested one, just
    calls through.  The collector is process-wide, so another thread can
    find it off while such a call runs.
    """

    @functools.wraps(fn)
    def deferred(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return deferred


def element(label: str, children: Iterable[XmlTree] = ()) -> XmlTree:
    return XmlTree(label, children=list(children))


def text_leaf(label: str, text: str) -> XmlTree:
    return XmlTree(label, text=text)


def value_equal(a: XmlTree, b: XmlTree) -> bool:
    """True iff the identifier-free value trees of ``a`` and ``b`` are identical.

    Comparison is ordered: label, content kind, text, child count and child
    order must all agree.  The walk keeps its own stack of node pairs, so
    trees of any depth are compared without recursion.  A pair whose two
    sides are the same object is equal without a walk, so two trees that
    share subtrees cost only their unshared nodes.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        # a text leaf's text is a string and an element's is None, so equal
        # texts also mean the same content kind
        if a.label != b.label or a.text != b.text:
            return False
        ac, bc = a.children, b.children
        if ac is not None:
            if len(ac) != len(bc):
                return False
            stack.extend(zip(ac, bc))
    return True


def copy_tree(t: XmlTree, preserve_ids: bool = False) -> XmlTree:
    """Deep-copy a tree.

    With ``preserve_ids`` the copy reuses the original identifiers, as
    ``DocumentStore.copy`` needs.  Otherwise fresh identifiers
    are assigned in document (preorder) order.  The walk keeps a stack of
    child iterators, one per open element, so a tree of any depth is copied
    without recursion.
    """
    counter = _COUNTER
    node_id = t.node_id if preserve_ids else next(counter)
    if t.children is None:
        return XmlTree(t.label, t.text, None, node_id)
    top = XmlTree(t.label, None, [], node_id)
    stack = [(iter(t.children), top.children)]
    while stack:
        todo, into = stack[-1]
        for node in todo:
            node_id = node.node_id if preserve_ids else next(counter)
            kids = node.children
            if kids is None:
                into.append(XmlTree(node.label, node.text, None, node_id))
                continue
            mine: list[XmlTree] = []
            into.append(XmlTree(node.label, None, mine, node_id))
            if kids:  # copy its children before its next sibling
                stack.append((iter(kids), mine))
                break
        else:
            stack.pop()
    return top


def iter_nodes(t: XmlTree) -> Iterator[XmlTree]:
    """Yield every node of the tree in document (preorder) order.

    The walk keeps its own stack, so a tree of any depth is walked without
    recursion.
    """
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if node.children:
            stack.extend(node.children[::-1])


def string_value(t: XmlTree) -> str:
    """Concatenation of all descendant text in document order.

    The walk keeps its own stack, so a tree of any depth is read without
    recursion; a text leaf is read directly.
    """
    if t.text is not None:
        return t.text
    texts: list[str] = []
    stack = (t.children or [])[::-1]
    while stack:
        node = stack.pop()
        if node.text is not None:
            texts.append(node.text)
        else:
            stack += (node.children or [])[::-1]
    return "".join(texts)


def locate(ctx: XmlTree, names: Sequence[str]) -> list[XmlTree]:
    """All subtrees reached from ``ctx`` by descending one child level per name.

    The first name matches children of ``ctx`` (relative semantics).  The
    result is in document order and may be empty.  An empty name sequence
    locates ``ctx`` itself.  A one-name path, the commonest, reads the child
    list of ``ctx`` once.
    """
    if len(names) == 1:
        name = names[0]
        return [c for c in ctx.children or () if c.label == name]
    nodes = [ctx]
    for name in names:
        nodes = [c for n in nodes if n.children for c in n.children if c.label == name]
    return nodes


# ----------------------------------------------------------------------
# Paths

@dataclass(frozen=True)
class DocRoot:
    doc: str


@dataclass(frozen=True)
class VarRoot:
    var: str


@dataclass(frozen=True)
class ViewRootMark:
    """Root marker for paths anchored at the (virtual) view instance."""


VIEW_ROOT = ViewRootMark()


@dataclass(frozen=True)
class QualifiedPath:
    """A name sequence anchored at a document, a variable, or the view root.

    For document- and view-rooted paths the first step repeats the root
    label of the addressed tree; callers check it and locate the remainder
    relative to the root.
    """

    root: object  # DocRoot | VarRoot | ViewRootMark
    steps: tuple[str, ...] = ()


def is_prefix(a: QualifiedPath, b: QualifiedPath) -> bool:
    """True iff ``a`` and ``b`` share a root and a's names are a (possibly
    equal) prefix of b's."""
    return a.root == b.root and b.steps[: len(a.steps)] == a.steps


# ----------------------------------------------------------------------
# Parsing and serialization of the XML subset

# a carriage return is written as a reference, since a parser turns a raw
# one into a line feed
_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}


def _escape(s: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in s)


def serialize(t: XmlTree) -> str:
    """Canonical serialization: no insignificant whitespace, stored child order.

    An element with no children serializes as ``<name/>``.  A text leaf
    always gets an explicit end tag, so a leaf holding "" serializes as
    ``<name></name>`` (which, note, re-parses as an empty element).  The
    walk keeps its own stack of nodes and pending end tags, so a tree of any
    depth is written without recursion.
    """
    out: list[str] = []
    stack: list = [t]  # nodes still to write, and end tags (str)
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.text is not None:
            out.append(f"<{node.label}>{_escape(node.text)}</{node.label}>")
        elif not node.children:
            out.append(f"<{node.label}/>")
        else:
            out.append(f"<{node.label}>")
            stack.append(f"</{node.label}>")
            stack.extend(reversed(node.children))
    return "".join(out)


def _rejecter(kind: str):
    def handler(*_args) -> None:
        raise UnsupportedFeature(f"{kind} are not supported")

    return handler


# the expat handlers that refuse what the subset leaves out; they keep no
# state, so every parser shares them
_REJECTED = (
    ("CommentHandler", _rejecter("comments")),
    ("ProcessingInstructionHandler", _rejecter("processing instructions")),
    ("StartCdataSectionHandler", _rejecter("CDATA sections")),
    ("StartDoctypeDeclHandler", _rejecter("doctype declarations")),
    ("EntityDeclHandler", _rejecter("entity declarations")),
)


def parse_document(text: str) -> XmlTree:
    """Parse one document of the supported subset into a tree with fresh ids.

    Accepted content is elements and character data only.  Attributes,
    namespaces, comments, processing instructions, doctypes, CDATA sections
    and mixed content (text sibling to elements) raise UnsupportedFeature.
    Whitespace-only text inside an element that has child elements is
    discarded, so pretty-printed input compares equal to compact input;
    text inside a leaf element is preserved verbatim.  Each node is made at
    its element's end, so ids follow post-order.

    The innermost open element's label, children and text chunks are held
    in the handlers' shared variables, and each enclosing element's are
    pushed on a stack; the chunk list is made only when text arrives, so
    the mixed-content check runs only for an element that has both text and
    children.
    """
    # the innermost open element's (label, children, text chunks); before
    # the root opens, a nameless entry whose children receive the root
    label, children, chunks = "", [], None
    top = children
    # the enclosing elements' entries, outermost first
    stack: list[tuple[str, list[XmlTree], Optional[list[str]]]] = []

    def start(name: str, attrs: dict) -> None:
        nonlocal label, children, chunks
        if attrs:
            raise UnsupportedFeature(f"attributes are not supported (element {name!r})")
        if ":" in name:
            raise UnsupportedFeature(f"namespaces are not supported (element {name!r})")
        stack.append((label, children, chunks))
        label, children, chunks = name, [], None

    def end(_name: str) -> None:
        nonlocal label, children, chunks
        if chunks is None:
            node = XmlTree(label, None, children)
        elif not children:
            node = XmlTree(label, "".join(chunks))
        elif any(chunk.strip() for chunk in chunks):
            raise UnsupportedFeature(f"mixed content under element {label!r}")
        else:
            node = XmlTree(label, None, children)
        label, children, chunks = stack.pop()
        children.append(node)

    def chars(data: str) -> None:
        # expat passes no character data outside the root element
        nonlocal chunks
        if chunks is None:
            chunks = [data]
        else:
            chunks.append(data)

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    for handler_name, handler in _REJECTED:
        setattr(parser, handler_name, handler)

    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc)) from None
    return top[0]  # expat raises "no element found" without a root


# ----------------------------------------------------------------------
# Document stores

class DocumentStore:
    """A named collection of parsed documents.

    Node identifiers are unique across the store and across any view
    instance evaluated from it.  All read operations are safe under shared
    concurrent reads; edit application requires exclusive access, and so
    does a verification, which applies route A to the store itself and then
    puts back every child list it edited, leaving the very same objects.
    """

    def __init__(self) -> None:
        self.docs: dict[str, XmlTree] = {}

    def add(self, name: str, tree: XmlTree) -> None:
        if name in self.docs:
            raise ValueError(f"document {name!r} already bound")
        self.docs[name] = tree

    def get(self, name: str) -> XmlTree:
        try:
            return self.docs[name]
        except KeyError:
            raise UnknownDocument(f"no document bound to {name!r}") from None

    def copy(self) -> "DocumentStore":
        """Identifier-preserving deep copy, onto which an edit log recorded
        on this store can be replayed (``replay_edits``)."""
        out = DocumentStore()
        for name, tree in self.docs.items():
            out.docs[name] = copy_tree(tree, preserve_ids=True)
        return out

    def find_node(self, node_id: int) -> Optional[XmlTree]:
        """The node of this store with id ``node_id``, or None.  A document
        root is matched before any tree is walked, so finding one reads no
        other node: a minimality probe's redo replays onto a store holding
        just its edit's parent."""
        for tree in self.docs.values():
            if tree.node_id == node_id:
                return tree
        for tree in self.docs.values():
            for node in iter_nodes(tree):
                if node.node_id == node_id:
                    return node
        return None


class Ancestry:
    """The one reader of parents in a store: ``parent(node)``, and
    ``chain(node)``, the node, then its ancestors, nearest first.  A
    document root, and a node whose ``node_id`` the store does not hold,
    has no parent.

    ``levels`` holds the nodes of each depth read so far: the store is read
    one depth at a time from the roots down, and only as deep as the nodes
    asked about, so a question about a root reads nothing.

    Each level is read once, at the first question that reaches it, in the
    state the store is in then.  A statement's edits never change the
    ancestors of the parents they land under, so answers about those stay
    right while the edits are applied; but a caller that asks about other
    nodes once the edits are undone must read their levels before the edits
    (``verifier._compute_routes`` does).
    """

    def __init__(self, store: DocumentStore) -> None:
        self.levels = [list(store.docs.values())]
        # child id -> parent, None for a root
        self.parents: dict[int, Optional[XmlTree]] = dict.fromkeys(
            root.node_id for root in self.levels[0]
        )

    def parent(self, node: XmlTree) -> Optional[XmlTree]:
        key, parents, levels = node.node_id, self.parents, self.levels
        while key not in parents and levels[-1]:
            below: list[XmlTree] = []
            for above in levels[-1]:
                kids = above.children or ()
                below += kids
                for child in kids:
                    parents[child.node_id] = above
            levels.append(below)
        return parents.get(key)

    def chain(self, node: XmlTree) -> list[XmlTree]:
        out = [node]
        while (above := self.parent(out[-1])) is not None:
            out.append(above)
        return out
