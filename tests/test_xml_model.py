"""Tree model: parsing, serialization, value equality, location, paths."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xview import xml_model
from xview.errors import (
    MalformedXml,
    UnknownDocument,
    UnsupportedFeature,
)
from xview.fuzzgen import random_case
from xview.xml_model import (
    Ancestry,
    DocRoot,
    DocumentStore,
    QualifiedPath,
    XmlTree,
    copy_tree,
    element,
    is_prefix,
    iter_nodes,
    locate,
    parse_document,
    serialize,
    string_value,
    text_leaf,
    value_equal,
)
from .conftest import (
    BKINF_XML,
    D1_XML,
    free_space,
    free_space_doc,
    join_session_store,
)
from .test_verifier import _mutated, _random_tree


def test_parse_nested_document():
    t = parse_document("<root><A><B>1</B></A><A><B>2</B></A></root>")
    expected = element(
        "root",
        [element("A", [text_leaf("B", "1")]), element("A", [text_leaf("B", "2")])],
    )
    assert value_equal(t, expected)


def test_parse_empty_element_has_zero_children():
    t = parse_document("<r></r>")
    assert not t.is_text
    assert t.children == []
    assert value_equal(t, parse_document("<r/>"))


def test_parse_rejects_attributes():
    with pytest.raises(UnsupportedFeature):
        parse_document('<a x="1"/>')


@pytest.mark.parametrize(
    "text",
    [
        "<a><!-- hidden --></a>",
        "<a><?pi data?></a>",
        "<a><![CDATA[x]]></a>",
        '<!DOCTYPE a SYSTEM "a.dtd"><a/>',
        "<ns:a>1</ns:a>",
        "<a>text<b>1</b></a>",
    ],
)
def test_parse_rejects_unsupported_constructs(text):
    with pytest.raises(UnsupportedFeature):
        parse_document(text)


def test_parse_names_each_unsupported_construct():
    for text, message in [
        ("<a><!-- hidden --></a>", "comments are not supported"),
        ("<a><?pi data?></a>", "processing instructions are not supported"),
        ("<a><![CDATA[x]]></a>", "CDATA sections are not supported"),
        ('<!DOCTYPE a SYSTEM "a.dtd"><a/>', "doctype declarations are not supported"),
    ]:
        with pytest.raises(UnsupportedFeature) as caught:
            parse_document(text)
        assert str(caught.value) == message
    # a doctype is refused before its declarations are read, so no parse
    # reaches the entity handler
    with pytest.raises(UnsupportedFeature) as caught:
        dict(xml_model._REJECTED)["EntityDeclHandler"]("e", 0, "x", None, None, None, None)
    assert str(caught.value) == "entity declarations are not supported"


@pytest.mark.parametrize(
    "text", ["<a><b></a>", "<a>", "no markup", "<a/><b/>", "", "   ", "<a/>x"]
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedXml):
        parse_document(text)


def test_parse_discards_whitespace_between_elements():
    pretty = "<r>\n  <A>\n    <B>b1</B>\n  </A>\n</r>"
    assert value_equal(parse_document(pretty), parse_document("<r><A><B>b1</B></A></r>"))
    # the same at every depth of a pretty-printed document, while a leaf's
    # text, spaces and line breaks included, is kept
    compact = parse_document(BKINF_XML)
    out: list[str] = []
    stack: list = [(compact, 0)]  # nodes to write, and end tags (str)
    while stack:
        node, depth = stack.pop()
        pad = "\n" + "\t" * depth
        if isinstance(node, str):
            out.append(f"{pad}{node}  ")
        elif node.text is not None:
            out.append(f"{pad}{serialize(node)}")
        else:
            out.append(f"{pad}<{node.label}>")
            stack.append((f"</{node.label}>", depth))
            stack.extend((c, depth + 1) for c in reversed(node.children))
    pretty = parse_document("".join(out) + "\n")
    assert value_equal(pretty, compact) and serialize(pretty) == serialize(compact)
    kept = parse_document("<r>\n  <A> a \n b </A>\n  <B/>\n</r>")
    assert kept.children[0].text == " a \n b " and len(kept.children) == 2


def test_parse_preserves_leaf_text_verbatim():
    t = parse_document("<a>  spaced  </a>")
    assert t.text == "  spaced  "


def test_parse_joins_long_leaf_text_exactly():
    # expat hands a leaf's text over in several chunks once it passes its
    # 8 KiB buffer and holds line breaks or entity references, even with
    # buffer_text; a run of plain characters arrives in one chunk
    lines = "".join(f"line {i} & more <x>\n" for i in range(600))
    assert len(lines.encode("utf-8")) > 8 * 1024
    for text in (lines, "\n" * 9000, "y" * 20_000):
        src = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        t = parse_document(f"<r><A>{src}</A><B/></r>")
        assert t.children[0].text == text and t.children[1].children == []


def test_parse_raises_the_first_fault_of_a_document():
    # each rejection is raised, with its message, at the fault expat meets
    # first: a start tag's attributes before its namespace, a construct
    # inside an element before the mixed content its end tag finds, and
    # mixed content, text before or after a child, before what follows it
    U, M = UnsupportedFeature, MalformedXml
    for text, error, message in [
        ('<a x="1"><ns:b/></a>', U, "attributes are not supported (element 'a')"),
        ('<a><ns:b x="1"/></a>', U, "attributes are not supported (element 'ns:b')"),
        ("<a><ns:b/></a>", U, "namespaces are not supported (element 'ns:b')"),
        ("<a>t<b/><!-- c --></a>", U, "comments are not supported"),
        ("<a>\n<b/>\n<?pi x?></a>", U, "processing instructions are not supported"),
        ("<a>text<b>1</b></a>", U, "mixed content under element 'a'"),
        ("<a><b>1</b>text</a>", U, "mixed content under element 'a'"),
        ("<a><b/>text<c/></a>", U, "mixed content under element 'a'"),
        ("<r><a> <b/> </a><c>t<d/>u</c></r>", U, "mixed content under element 'c'"),
        ("<a>t<b/></a><c/>", U, "mixed content under element 'a'"),
        ("<a>t<b/></a>x", U, "mixed content under element 'a'"),
        ("<a><b>t<c/></b>", U, "mixed content under element 'b'"),
        ("<a><b></a>", M, "mismatched tag: line 1, column 8"),
        ("<a>&bogus;<b/></a>", M, "undefined entity: line 1, column 3"),
    ]:
        with pytest.raises(error) as caught:
            parse_document(text)
        assert type(caught.value) is error and str(caught.value) == message, text


def _postorder(t: XmlTree) -> list[XmlTree]:
    out: list[XmlTree] = []
    for child in t.children or ():
        out += _postorder(child)
    return out + [t]


def test_parse_numbers_elements_in_post_order():
    # an element's id is fresh when its end tag is read, after all of its
    # descendants' ids; `xview apply` prints these ids as an edit's parent
    t = parse_document(
        "<r><A><B>1</B><C><D/><E>2</E></C></A>\n <A/><F><G><H>3</H></G></F></r>"
    )
    ids = [n.node_id for n in _postorder(t)]
    assert len(ids) == 10 and ids == list(range(ids[0], ids[0] + 10))
    assert parse_document("<x/>").node_id == ids[-1] + 1


def test_serialize_simple():
    t = element("r", [element("A", [text_leaf("B", "1")])])
    assert serialize(t) == "<r><A><B>1</B></A></r>"


def test_serialize_empty_element_is_self_closing():
    assert serialize(element("r")) == "<r/>"


def test_serialize_escapes_markup_characters():
    t = text_leaf("a", 'x < y & "z" > w')
    assert value_equal(parse_document(serialize(t)), t)


def test_d1_round_trip():
    t = parse_document(D1_XML)
    assert value_equal(parse_document(serialize(t)), t)


def test_value_equal_ignores_ids():
    a = element("A", [text_leaf("B", "1")])
    b = element("A", [text_leaf("B", "1")])
    assert a.node_id != b.node_id
    assert value_equal(a, b)


def test_value_equal_is_order_sensitive():
    a = element("A", [text_leaf("B", "1"), text_leaf("C", "2")])
    b = element("A", [text_leaf("C", "2"), text_leaf("B", "1")])
    assert not value_equal(a, b)


def test_value_equal_distinguishes_labels():
    assert not value_equal(text_leaf("D", "1"), text_leaf("H", "1"))
    # while their string values agree
    assert string_value(text_leaf("D", "1")) == string_value(text_leaf("H", "1"))


def test_empty_children_distinct_from_empty_text():
    assert not value_equal(element("a"), text_leaf("a", ""))


def test_locate_multi_match_in_document_order(d1_store):
    a = d1_store.get("r").children[0]
    cs = locate(a, ("C",))
    assert [string_value(c) for c in cs] == ["1g1", "2"]
    ds = locate(a, ("C", "D"))
    assert [d.text for d in ds] == ["1", "2"]
    assert locate(a, ("nothing",)) == []


def _per_level_locate(ctx, names):
    """The reference: ``locate`` as the generic per-level loop, for a path
    of any length."""
    nodes = [ctx]
    for name in names:
        nodes = [c for n in nodes if n.children for c in n.children if c.label == name]
    return nodes


def test_locate_one_step_matches_the_per_level_reference():
    doc = parse_document(
        "<r><A><B>1</B></A><E/><A>2</A><C><A>3</A></C><A><A/></A><B></B></r>"
    )
    contexts = list(iter_nodes(doc))
    assert any(n.is_text for n in contexts)  # text leaves: nothing below
    assert any(n.children == [] for n in contexts)  # empty elements
    for ctx in contexts:
        for name in ("A", "B", "C", "E", "Z"):
            got = locate(ctx, (name,))
            assert [id(n) for n in got] == [id(n) for n in _per_level_locate(ctx, (name,))]
    # repeated labels, in document order
    found = locate(doc, ("A",))
    assert [string_value(n) for n in found] == ["1", "2", ""]
    assert found == [c for c in doc.children if c.label == "A"]
    assert locate(text_leaf("A", "x"), ("A",)) == []
    assert locate(element("A"), ("A",)) == []
    rng = random.Random(25)
    for _ in range(300):
        t = _random_tree(rng)
        for node in iter_nodes(t):
            for name in "ABCD":
                assert locate(node, (name,)) == _per_level_locate(node, (name,))


def test_locate_results_have_distinct_ids(d1_store):
    a = d1_store.get("r").children[0]
    found = locate(a, ("C",))
    assert len({n.node_id for n in found}) == len(found)


def test_string_value(d1_store):
    a = d1_store.get("r").children[0]
    h = locate(a, ("H",))[0]
    assert string_value(h) == "1"
    c1 = locate(a, ("C",))[0]
    assert string_value(c1) == "1g1"
    assert string_value(element("x", [element("y")])) == ""


def test_is_prefix():
    root = DocRoot("r")
    assert is_prefix(
        QualifiedPath(root, ("r", "A", "C")), QualifiedPath(root, ("r", "A", "C", "D"))
    )
    assert not is_prefix(
        QualifiedPath(root, ("r", "A", "B")), QualifiedPath(root, ("r", "A", "C"))
    )
    p = QualifiedPath(root, ("r", "A"))
    assert is_prefix(p, p)
    assert not is_prefix(QualifiedPath(DocRoot("other"), ("r",)), p)


def test_store_unknown_document():
    store = DocumentStore()
    with pytest.raises(UnknownDocument):
        store.get("nope")
    store.add("d", parse_document("<d/>"))
    with pytest.raises(ValueError):
        store.add("d", parse_document("<d/>"))


def test_find_node_matches_each_root_before_walking(monkeypatch):
    # a root is found without a walk, even the second document's; any other
    # node by walking the trees in turn; a missing id gives None
    store = DocumentStore()
    store.add("s", parse_document("<R><A><B><C>1</C></B></A></R>"))
    store.add("t", parse_document("<S><D>2</D></S>"))
    walked: list[str] = []
    walk = xml_model.iter_nodes

    def counted(tree):
        walked.append(tree.label)
        return walk(tree)

    monkeypatch.setattr(xml_model, "iter_nodes", counted)
    for root in store.docs.values():
        assert store.find_node(root.node_id) is root
    assert walked == []
    deep = store.docs["s"].children[0].children[0].children[0]
    assert deep.label == "C" and store.find_node(deep.node_id) is deep
    assert walked == ["R"]
    leaf = store.docs["t"].children[0]
    assert store.find_node(leaf.node_id) is leaf
    assert walked == ["R", "R", "S"]
    ids = {n.node_id for t in store.docs.values() for n in walk(t)}
    assert store.find_node(max(ids) + 1) is None
    assert walked == ["R", "R", "S", "R", "S"]


# ----------------------------------------------------------------------
# Property tests

_labels = st.sampled_from(["a", "b", "c"])
# line breaks and tabs too: a parser turns a raw carriage return into a line
# feed, so the serializer must write it as a reference
_texts = st.text(
    alphabet="xy01 <>&\"'\r\n\t", min_size=1, max_size=6
)

_trees = st.recursive(
    st.builds(text_leaf, _labels, _texts),
    lambda inner: st.builds(
        lambda l, cs: element(l, cs), _labels, st.lists(inner, max_size=3)
    ),
    max_leaves=10,
)

# a deliberately tiny space so that equal values actually get drawn
_small_trees = st.recursive(
    st.builds(text_leaf, st.sampled_from(["a", "b"]), st.sampled_from(["1", "2"])),
    lambda inner: st.builds(
        lambda l, cs: element(l, cs),
        st.sampled_from(["a", "b"]),
        st.lists(inner, max_size=2),
    ),
    max_leaves=4,
)


@given(_trees)
@example(text_leaf("a", "x\ry"))
def test_prop_round_trip(t):
    assert value_equal(parse_document(serialize(t)), t)


@given(_small_trees, _small_trees, _small_trees)
def test_prop_value_equal_equivalence(a, b, c):
    assert value_equal(a, a)
    assert value_equal(a, b) == value_equal(b, a)
    if value_equal(a, b) and value_equal(b, c):
        assert value_equal(a, c)


@given(_trees)
def test_prop_copy_is_value_equal_with_disjoint_ids(t):
    copied = copy_tree(t)
    assert value_equal(copied, t)
    original_ids = {n.node_id for n in iter_nodes(t)}
    copied_ids = {n.node_id for n in iter_nodes(copied)}
    assert not original_ids & copied_ids


@given(_trees)
def test_prop_locate_order_and_distinctness(t):
    order = {n.node_id: i for i, n in enumerate(iter_nodes(t))}
    for names in [("a",), ("b",), ("a", "b"), ("b", "a", "c")]:
        found = locate(t, names)
        positions = [order[n.node_id] for n in found]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


def test_iter_nodes_walks_a_deep_chain_in_preorder():
    # far deeper than the recursion limit; built in code, not parsed
    root = element("n")
    chain = [root]
    for _ in range(5000):
        child = element("n")
        chain[-1].children.append(child)
        chain.append(child)
    assert [n.node_id for n in iter_nodes(root)] == [n.node_id for n in chain]

    branching = parse_document("<a><b><c>1</c><d/></b><e>2</e></a>")
    assert [n.label for n in iter_nodes(branching)] == ["a", "b", "c", "d", "e"]


def test_string_value_reads_a_deep_chain_in_document_order():
    # far deeper than the recursion limit; built in code, not parsed
    root = element("n", [text_leaf("t", "a")])
    tip = root
    for _ in range(5000):
        child = element("n")
        tip.children.append(child)
        tip = child
    tip.children.extend([text_leaf("t", "b"), element("n", [text_leaf("t", "")])])
    root.children.append(text_leaf("t", "c"))
    assert string_value(root) == "abc"
    assert string_value(tip) == "b"
    assert string_value(text_leaf("t", "")) == ""


# ----------------------------------------------------------------------
# The iterative kernels against their recursive references


def _recursive_value_equal(a: XmlTree, b: XmlTree) -> bool:
    """The reference: ``value_equal`` as it was when it recursed."""
    if a.label != b.label or a.is_text != b.is_text:
        return False
    if a.is_text:
        return a.text == b.text
    ac, bc = a.children or [], b.children or []
    if len(ac) != len(bc):
        return False
    for x, y in zip(ac, bc):
        if not _recursive_value_equal(x, y):
            return False
    return True


def _recursive_copy_tree(t: XmlTree, preserve_ids: bool = False) -> XmlTree:
    """The reference: ``copy_tree`` as it was when it recursed."""
    node_id = t.node_id if preserve_ids else xml_model.fresh_id()
    if t.is_text:
        return XmlTree(t.label, text=t.text, node_id=node_id)
    kids = []
    for c in t.children or []:
        kids.append(_recursive_copy_tree(c, preserve_ids))
    return XmlTree(t.label, children=kids, node_id=node_id)


def _recursive_serialize(t: XmlTree) -> str:
    """The reference: ``serialize`` as it was when it recursed."""
    if t.is_text:
        return f"<{t.label}>{xml_model._escape(t.text or '')}</{t.label}>"
    if not t.children:
        return f"<{t.label}/>"
    inner = []
    for c in t.children:
        inner.append(_recursive_serialize(c))
    return f"<{t.label}>{''.join(inner)}</{t.label}>"


def _fresh_ids(copy, t: XmlTree) -> list[int]:
    """The ids a copy of ``t`` takes, relative to the next fresh id."""
    start = xml_model.fresh_id() + 1
    return [n.node_id - start for n in iter_nodes(copy(t))]


def _assert_kernels_match(t: XmlTree, other: XmlTree) -> None:
    for left, right in ((t, t), (t, other), (other, t)):
        assert value_equal(left, right) == _recursive_value_equal(left, right)
    assert serialize(t) == _recursive_serialize(t)
    size = sum(1 for _ in iter_nodes(t))
    # fresh ids in preorder, as the reference assigns them
    preorder = list(range(size))
    assert _fresh_ids(copy_tree, t) == _fresh_ids(_recursive_copy_tree, t) == preorder
    copied = copy_tree(t)
    assert serialize(copied) == _recursive_serialize(t)
    originals = {id(n) for n in iter_nodes(t)}
    assert not originals & {id(n) for n in iter_nodes(copied)}
    # preserved ids: the very ids, in the same places
    kept = copy_tree(t, preserve_ids=True)
    ids = [(n.node_id, n.label, n.text) for n in iter_nodes(kept)]
    assert ids == [(n.node_id, n.label, n.text) for n in iter_nodes(t)]
    assert ids == [
        (n.node_id, n.label, n.text)
        for n in iter_nodes(_recursive_copy_tree(t, preserve_ids=True))
    ]
    assert not originals & {id(n) for n in iter_nodes(kept)}


def test_kernels_match_their_recursive_references_on_random_trees():
    rng = random.Random(16)
    equal = 0
    for _ in range(2000):
        t = _random_tree(rng)
        other = _mutated(rng, t)
        _assert_kernels_match(t, other)
        equal += value_equal(t, other)
    assert 200 < equal < 1800  # both answers are drawn often


def test_kernels_match_their_recursive_references_on_a_deep_chain():
    # far deeper than the default recursion limit; built in code, not
    # parsed.  The references need a raised limit, the kernels do not.
    depth = 5000
    root = element("n", [text_leaf("t", "a&b")])
    tip = root
    for _ in range(depth):
        child = element("n")
        tip.children.append(child)
        tip = child
    tip.children.extend([text_leaf("t", "<"), element("e")])
    root.children.append(text_leaf("t", "c"))
    other = copy_tree(root)
    bottom = list(iter_nodes(other))[-3]
    assert bottom.text == "<"
    bottom.text = ">"
    assert value_equal(root, copy_tree(root)) and not value_equal(root, other)
    assert serialize(root).startswith("<n><t>a&amp;b</t>" + "<n>" * depth)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * depth)
    try:
        _assert_kernels_match(root, other)
    finally:
        sys.setrecursionlimit(limit)


def test_copy_tree_keeps_ids_and_the_node_invariant_on_a_deep_chain():
    # deeper than the recursion limit, which is left as it is: each element
    # of the chain holds a text leaf, an empty element and the next link.
    # A copy's nodes are plain XmlTree nodes, each holding either text or a
    # child list of its own, never the source's; fresh ids run in preorder,
    # preserved ids are the source's, in the same places
    depth = sys.getrecursionlimit() + 1000
    root = element("n")
    tip = root
    for i in range(depth):
        child = element("n")
        tip.children += [text_leaf("t", str(i)), element("e"), child]
        tip = child
    tip.children.append(text_leaf("t", ""))
    nodes = list(iter_nodes(root))
    start = xml_model.fresh_id() + 1
    for copied, fresh in ((copy_tree(root), True), (copy_tree(root, True), False)):
        copies = list(iter_nodes(copied))
        assert len(copies) == len(nodes) == 3 * depth + 2
        for n, (copy, source) in enumerate(zip(copies, nodes)):
            assert type(copy) is XmlTree and copy is not source
            assert (copy.text is None) != (copy.children is None)
            assert copy.label == source.label and copy.text == source.text
            if copy.children is not None:
                assert copy.children is not source.children
                assert len(copy.children) == len(source.children)
            assert copy.node_id == (start + n if fresh else source.node_id)
        assert value_equal(copied, root)
    # the copy is a tree of its own: editing it leaves the source as it was
    text = serialize(root)
    copied = copy_tree(root)
    bottom = list(iter_nodes(copied))[-3]
    assert bottom.label == "e" and bottom.children == []
    bottom.children.append(text_leaf("t", "x"))
    assert serialize(root) == text and not value_equal(copied, root)


# ----------------------------------------------------------------------
# The ancestor reader


def _reader_stores():
    """The stores of ``fuzz`` seeds 0-19 x 200, one free-space document per
    pair, and the two-document join-session store."""
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(200):
            yield random_case(rng).store
    rng = random.Random(0)
    for _view, _update, below in free_space():
        store = DocumentStore()
        store.add("s", parse_document(free_space_doc(rng, below)))
        yield store
    yield join_session_store()


def test_ancestry_matches_a_full_walk_map():
    rng = random.Random(30)
    stores = 0
    for store in _reader_stores():
        stores += 1
        walked: dict[int, XmlTree] = {}  # id(child) -> parent, by one walk
        depth: dict[int, int] = {}
        for root in store.docs.values():
            depth[id(root)] = 0
            for node in iter_nodes(root):
                for child in node.children or ():
                    walked[id(child)] = node
                    depth[id(child)] = depth[id(node)] + 1
        nodes = [n for root in store.docs.values() for n in iter_nodes(root)]
        # a first question reads only as deep as the node asked about
        first = rng.choice(nodes)
        reader = Ancestry(store)
        reader.chain(first)
        assert len(reader.levels) == depth[id(first)] + 1
        rng.shuffle(nodes)  # deep and shallow questions interleave
        for node in nodes:
            assert reader.parent(node) is walked.get(id(node))
            chain = reader.chain(node)
            assert chain[0] is node and len(chain) == depth[id(node)] + 1
            for below, above in zip(chain, chain[1:]):
                assert walked[id(below)] is above
        for root in store.docs.values():
            assert reader.chain(root) == [root]
            copied = copy_tree(root)
            assert all(reader.chain(n) == [n] for n in iter_nodes(copied))
    assert stores == 20 * 200 + len(list(free_space())) + 1
