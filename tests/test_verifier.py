"""Round-trip correctness, leave-one-edit-out minimality, lemma assertions."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import random
import re
from typing import Optional

import pytest

from xview.errors import TupleBudgetExceeded, XviewError
from xview import cli, evaluator, updater, verifier
from xview.evaluator import ViewInstance, enumerate_bindings, evaluate_view, row_trees
from xview.fuzzgen import gen_t1, gen_t2, random_case
from xview.lang import (
    DeleteBinding,
    DeleteLabel,
    PathEqString,
    UpdateStatement,
    ViewDef,
    parse_update,
    parse_view_def,
    render_update,
    return_last_name,
)
from xview.translator import Case, Rejected, Translated, translate
from xview.updater import (
    Deleted,
    Edit,
    Inserted,
    apply_update,
    context_form,
    execute_plan,
    plan_update,
    replay_edits,
    target_trees,
)
from xview.verifier import (
    VerificationReport,
    _Routes,
    _compute_routes,
    check_correctness,
    check_minimality,
    run_lemma_suite,
    tree_diff,
    verify_translation,
)
from xview.xml_model import (
    Ancestry,
    DocumentStore,
    VarRoot,
    XmlTree,
    copy_tree,
    iter_nodes,
    locate,
    parse_document,
    serialize,
    string_value,
    value_equal,
)
from .conftest import (
    BKINF_XML,
    QBK_DS_NO_COND,
    QBK_DS_PADDED,
    QBK_DS_PRINTED,
    QBK_DV,
    QBK_VIEW,
    SUBJINF_XML,
    free_space,
    free_space_doc,
    join_session_store,
)


def test_correctness_books_end_to_end(qbk_view, qbk_dv, qbk_store):
    report = verify_translation(
        qbk_view, qbk_dv, parse_update(QBK_DS_PRINTED), qbk_store
    )
    assert report.correct and report.view_diff is None


def test_correctness_fails_without_appended_condition(qbk_view, qbk_dv, qbk_store):
    report = verify_translation(
        qbk_view, qbk_dv, parse_update(QBK_DS_NO_COND), qbk_store, Case.T1
    )
    assert not report.correct
    diff = report.view_diff
    assert diff is not None
    # the divergence is an extra author in a non-matching book's wrapper tree
    assert "Susan" in diff["left"] and "Susan" not in diff["right"]
    # minimality and the lemmas are only judged on correct translations
    assert not report.minimal and report.witness is None
    assert report.lemma_checks == []


def _settled_routes(view, view_update, source_update, store) -> _Routes:
    """The routes, read as the lemma suite reads them: with the store back
    to the sources."""
    with _compute_routes(view, view_update, source_update, store) as routes:
        return routes


def test_lemma3_judges_the_emitted_where_clause(qbk_view, qbk_dv, qbk_store):
    # the statement lacks the appended title="IS" atom, so on the DB and AI
    # tuples its where clause holds while the view condition does not
    routes = _settled_routes(
        qbk_view, qbk_dv, parse_update(QBK_DS_NO_COND), qbk_store
    )
    assert ("L3", False) in run_lemma_suite(routes, Case.T1)


def test_correctness_of_noop_update(qbk_view, qbk_store):
    dv = parse_update(
        'for r in view(Qbk)/Qbk/use where r/title="ZZZ" '
        "update r/auths { insert <aName>Ghost</aName> }"
    )
    out = translate(qbk_view, dv)
    assert isinstance(out, Translated)
    report = verify_translation(qbk_view, dv, out.statement, qbk_store)
    assert report.correct
    assert report.minimal and report.witness is None  # empty edit log


def test_minimality_books(qbk_view, qbk_dv, qbk_store):
    report = verify_translation(
        qbk_view, qbk_dv, parse_update(QBK_DS_PRINTED), qbk_store
    )
    assert report.minimal and report.witness is None


def test_padded_update_is_correct_but_not_minimal(qbk_view, qbk_dv, qbk_store):
    padded = parse_update(QBK_DS_PADDED)
    report = verify_translation(qbk_view, qbk_dv, padded, qbk_store)
    assert report.correct
    assert not report.minimal
    witness = report.witness
    assert isinstance(witness, Inserted)
    # the witness is precisely the edit on the book no subject references
    books = locate(qbk_store.get("bkInf.xml"), ("book",))
    unrelated_auths = locate(books[3], ("auths",))[0]
    assert witness.parent_id == unrelated_auths.node_id


def test_lemma_suite_books(qbk_view, qbk_dv, qbk_store):
    report = verify_translation(
        qbk_view, qbk_dv, parse_update(QBK_DS_PRINTED), qbk_store, Case.T1
    )
    assert report.correct
    assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]


def test_lemma_suite_on_join_case(d1_store, ex1_disjoint_view):
    dv = parse_update('for r in v/e where r/H="1" update r/G ( delete Q )')
    out = translate(ex1_disjoint_view, dv)
    assert isinstance(out, Translated) and out.case is Case.T2
    report = verify_translation(
        ex1_disjoint_view, dv, out.statement, d1_store, out.case
    )
    assert report.correct
    assert [name for name, _ok in report.lemma_checks] == ["L1", "L2", "L3"]
    assert all(ok for _name, ok in report.lemma_checks)


def _single_doc_store(xml: str) -> DocumentStore:
    store = DocumentStore()
    store.add("s", parse_document(xml))
    return store


def test_lemma2_counts_every_tuple_of_a_deleted_binding():
    # the deleted A has two tuples, one per C child
    view = parse_view_def('<v>{for x in doc("s")/R/A, y in x/C return <e>{x/B}</e>}</v>')
    store = _single_doc_store(
        "<R><A><B>1</B><C>c</C><C>d</C></A><A><B>2</B><C>e</C></A></R>"
    )
    dv = parse_update('for u in v where u/e/B="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.correct and report.minimal
    assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]


def test_lemma2_of_a_root_deletion_case_needs_a_binding_deletion():
    # a correct insertion, judged as the root deletion case: L2 fails
    # instead of reading a deleted binding the statement does not have
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/B}{x/C}</e>}</v>')
    store = _single_doc_store("<R><A><B><D>1</D></B><C>1</C></A></R>")
    dv = parse_update('for r in v/e where r/C="1" update r/B { insert <Z>z</Z> }')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is not Case.T4
    report = verify_translation(view, dv, out.statement, store, Case.T4)
    assert report.correct and report.minimal
    assert ("L2", False) in report.lemma_checks


def test_lemma1_catches_a_partial_plan_under_a_parent_step():
    # a T3 statement plans on the M parents of the deleted T trees; a plan
    # that reaches only one of a tuple's two M parents breaks L1
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/B}{x/M/T}</e>}</v>')
    store = _single_doc_store(
        "<R><A><B>1</B><M><T>t</T></M><M><T>u</T></M></A></R>"
    )
    dv = parse_update('for w in v/e where w/B="1" update w { delete T }')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T3
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.lemma_checks[0] == ("L1", True)

    # L1 reads route A's planned parents off its put-back record; drop the
    # entry of one of the two M parents
    routes = _settled_routes(view, dv, out.statement, store)
    assert len(routes.put_back) == 2
    dropped = min(routes.put_back)
    partial = dataclasses.replace(
        routes, put_back={k: v for k, v in routes.put_back.items() if k != dropped}
    )
    assert run_lemma_suite(partial, out.case)[0] == ("L1", False)


def _per_tuple_lemma1(routes: _Routes) -> bool:
    """The reference: L1 with ``target_trees`` called on every tuple."""
    update = routes.source_update
    if isinstance(update.action, DeleteBinding):
        return True
    for tup in enumerate_bindings(update.bindings, routes.store):
        ids = {n.node_id for n in target_trees(update.target, tup)}
        hit = ids & routes.put_back.keys()
        if hit and hit != ids:
            return False
    return True


def test_lemma1_per_target_node_matches_the_per_tuple_reference():
    # generated translations, with their whole plan and with each planned
    # parent dropped in turn from route A's put-back record
    rng = random.Random(14)
    judged = failed = joins = 0
    for _ in range(300):
        case = random_case(rng)
        out = translate(case.view, case.update)
        if not isinstance(out, Translated):
            continue
        routes = _settled_routes(case.view, case.update, out.statement, case.store)
        joins += len(out.statement.bindings) > 1
        for dropped in (None, *routes.put_back):
            partial = dataclasses.replace(
                routes,
                put_back={k: v for k, v in routes.put_back.items() if k != dropped},
            )
            want = _per_tuple_lemma1(partial)
            assert verifier._lemma1(partial) == want
            judged += 1
            failed += not want
    assert judged > 250 and failed > 50 and joins > 20


def _join_t1_case() -> tuple:
    """The translated T1 insertion on the join-session documents, as the
    arguments of ``verify_translation``."""
    view = parse_view_def(QBK_VIEW)
    dv = parse_update(
        'for r in view(Qbk)/Qbk/use where r/title="t03" '
        "update r/auths { insert <aName>n1</aName> }"
    )
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T1
    return view, dv, out.statement, join_session_store(), out.case


def test_a_join_verify_reads_each_target_node_once(monkeypatch):
    # the translated T1 update on the join-session documents: L1 calls
    # target_trees once, for the one book above the touched auths, not once
    # per book (50) or per tuple of the 10,000 product, and the lemma suite
    # enumerates no binding.  The where clauses are tested 250 times: the
    # source plan tests x/title="t03" on the 50 books before the subjects
    # extend them, and the view update's plan r/title="t03" on the 200
    # wrappers; the join atom goes through the index in every pass
    trees = [0]
    real = verifier.target_trees

    def counting(target, tup):
        trees[0] += 1
        return real(target, tup)

    in_suite, suite_levels = [False], [0]
    real_suite, real_bind_level = verifier.run_lemma_suite, evaluator.bind_level

    def suite(*args):
        in_suite[0] = True
        try:
            return real_suite(*args)
        finally:
            in_suite[0] = False

    def bind_level(*args):
        suite_levels[0] += in_suite[0]
        return real_bind_level(*args)

    monkeypatch.setattr(verifier, "target_trees", counting)
    monkeypatch.setattr(verifier, "run_lemma_suite", suite)
    # the verifier's own calls and those of an enumeration
    monkeypatch.setattr(verifier, "bind_level", bind_level)
    monkeypatch.setattr(evaluator, "bind_level", bind_level)
    tests = _counting_eval_condition(monkeypatch)
    report = verify_translation(*_join_t1_case())
    assert report.passed and report.lemma_checks[0] == ("L1", True)
    assert trees == [1]
    assert suite_levels == [0]
    assert tests == [250]


RENAMED_VIEW = '<v>{for x in doc("s")/R/A return <e>{x/B}{x/C}</e>}</v>'


@pytest.mark.parametrize(
    "doc, dv, ds, case",
    [
        # the statement binds y where the view binds x: a root deletion of
        # y's A, and an insertion under y's B
        (
            "<R><A><B>b</B><C>1</C></A><A><B>c</B><C>2</C></A></R>",
            'for u in v where u/e/C="1" update u ( delete e )',
            'for y in doc("s")/R/A where y/C="1" update y/.. ( delete A )',
            Case.T4,
        ),
        (
            "<R><A><B><D>1</D></B><C>1</C></A><A><B><D>2</D></B><C>2</C></A></R>",
            'for r in v/e where r/C="1" update r/B { insert <Z>z</Z> }',
            'for y in doc("s")/R/A where y/C="1" update y/B { insert <Z>z</Z> }',
            Case.T1,
        ),
        # the statement binds each B below the view's x and deletes it: a
        # binding deletion of a variable the view does not bind
        (
            "<R><A><B>b</B><C>1</C></A><A><B>c</B><C>2</C></A></R>",
            'for r in v/e where r/C="1" update r { delete B }',
            'for x in doc("s")/R/A, y in x/B where x/C="1" update y/.. ( delete B )',
            Case.T4,
        ),
        # the view update's condition pairs with its target at the view root
        (
            "<R><A><B/><C>1</C></A><A><B/></A></R>",
            'for u in v where u="1" update u/e/B { insert <Z>z</Z> }',
            'for x in doc("s")/R/A where x=x update x/B { insert <Z>z</Z> }',
            Case.T1,
        ),
    ],
    ids=["renamed-T4", "renamed-T1", "deletes-an-added-binding", "paired-at-the-root"],
)
def test_statements_outside_the_lemma_premise_get_no_lemmas(doc, dv, ds, case):
    # the lemmas are stated for what translate emits; a statement that
    # renames the view's variables, or a view update paired above the
    # wrappers, is judged by both oracles and reported with no lemmas
    view = parse_view_def(RENAMED_VIEW)
    store = _single_doc_store(doc)
    report = verify_translation(view, parse_update(dv), parse_update(ds), store, case)
    assert report.to_json() == {
        "correct": True,
        "minimal": True,
        "diff": None,
        "witness": None,
        "lemmas": {},
    }


def test_verification_leaves_the_store_unchanged(qbk_view, qbk_dv, qbk_store):
    before = {name: serialize(t) for name, t in qbk_store.docs.items()}
    report = verify_translation(
        qbk_view, qbk_dv, parse_update(QBK_DS_PADDED), qbk_store, Case.T1
    )
    assert report.correct and not report.minimal
    assert {name: serialize(t) for name, t in qbk_store.docs.items()} == before


def test_suite_unreachable_for_rejected_outcomes(ex1_view):
    dv = parse_update('for r in v/e where r/H="1" update r/C { delete <D>1</D> }')
    out = translate(ex1_view, dv)
    assert isinstance(out, Rejected)  # nothing to verify


def test_visible_over_update_breaks_correctness():
    # over-updates land in the minimality check only while they stay
    # invisible to the view; an over-matching condition on exposed data is
    # already a correctness failure
    store_xml = (
        "<R><A><C>1</C><T><W>t</W></T></A><A><C>9</C><T><W>t</W></T></A></R>"
    )
    view = parse_view_def('<v>{for x in doc("d")/R/A return <e>{x/C}{x/T}</e>}</v>')
    store = DocumentStore()
    store.add("d", parse_document(store_xml))
    dv = parse_update('for w in v/e where w/C="1" update w/T { insert <U>u</U> }')
    over_matching = parse_update(
        'for x in doc("d")/R/A where x/T="t" update x/T { insert <U>u</U> }'
    )
    report = verify_translation(view, dv, over_matching, store)
    assert not report.correct and report.view_diff is not None


def test_tree_diff_reports_first_divergence():
    a = parse_document("<r><x>1</x><y>2</y></r>")
    b = parse_document("<r><x>1</x><y>3</y></r>")
    diff = tree_diff(a, b)
    assert diff is not None and diff["path"].endswith("y")
    assert tree_diff(a, a) is None


def _recursive_tree_diff(a, b, path: str = "") -> Optional[dict]:
    """The reference: ``tree_diff`` as it was when it compared labels,
    texts and child counts itself and recursed into each child pair."""
    here = path + a.label
    if a.label != b.label or a.is_text != b.is_text:
        return {"path": here, "left": serialize(a), "right": serialize(b)}
    if a.is_text:
        if a.text != b.text:
            return {"path": here, "left": serialize(a), "right": serialize(b)}
        return None
    ac, bc = a.children or [], b.children or []
    if len(ac) != len(bc):
        return {"path": here, "left": serialize(a), "right": serialize(b)}
    for i, (x, y) in enumerate(zip(ac, bc)):
        d = _recursive_tree_diff(x, y, f"{here}[{i}]/")
        if d is not None:
            return d
    return None


def _random_tree(rng: random.Random, depth: int = 0) -> XmlTree:
    """A small tree over few labels and texts, so that sibling swaps and
    relabelings often leave it value-equal."""
    label = rng.choice("ABC")
    if depth == 3 or rng.random() < 0.35:
        return XmlTree(label, text=rng.choice(["", "1", "2"]))
    kids = [_random_tree(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return XmlTree(label, children=kids)


def _sharing(rng: random.Random, tree: XmlTree) -> XmlTree:
    """A value-equal copy of ``tree`` that keeps about half of each copied
    node's children as the very same objects, as wrappers over shared rows
    do; the root is always a copy."""
    if tree.is_text:
        return XmlTree(tree.label, text=tree.text)
    kids = [kid if rng.random() < 0.5 else _sharing(rng, kid) for kid in tree.children]
    return XmlTree(tree.label, children=kids)


def _own_nodes(tree: XmlTree, other: XmlTree) -> list[XmlTree]:
    """The nodes of ``tree``, in document order, that are not inside a
    subtree it shares with ``other``, so that editing one leaves ``other``
    as it is."""
    shared = {id(n) for n in iter_nodes(other)}
    own, stack = [], [tree]
    while stack:
        node = stack.pop()
        if id(node) not in shared:
            own.append(node)
            stack.extend(reversed(node.children or ()))
    return own


def _mutated(rng: random.Random, tree: XmlTree, share: bool = False) -> XmlTree:
    """A copy of ``tree``, identical or with one mutation at a random node
    of its own: relabel, change a text, insert or delete a child, swap two
    siblings, or turn a text leaf into an element.  With ``share`` the copy
    is ``_sharing``'s, so a swap may move a shared child to another place."""
    out = _sharing(rng, tree) if share else copy_tree(tree)
    node = rng.choice(_own_nodes(out, tree))
    kind = rng.choice(
        ["same", "relabel", "text", "insert", "delete", "swap", "element"]
    )
    if kind == "relabel":
        node.label = rng.choice("ABCD")
    elif kind == "text" and node.is_text:
        node.text = rng.choice(["", "1", "2", "3"])
    elif kind == "element" and node.is_text:
        node.text, node.children = None, rng.choice([[], [_random_tree(rng, 3)]])
    elif kind == "insert" and not node.is_text:
        node.children.insert(
            rng.randint(0, len(node.children)), _random_tree(rng, 2)
        )
    elif kind == "delete" and node.children:
        del node.children[rng.randrange(len(node.children))]
    elif kind == "swap" and node.children and len(node.children) > 1:
        i, j = rng.sample(range(len(node.children)), 2)
        node.children[i], node.children[j] = node.children[j], node.children[i]
    return out


def test_tree_diff_matches_the_recursive_reference():
    # on independent copies, and on copies that share subtrees with the
    # tree they came from, so that a divergence often follows shared
    # siblings: the skipped pairs must neither shift a reported place nor
    # hide a later pair
    rng = random.Random(2024)
    found = after_shared = 0
    for at in range(6000):
        a = _random_tree(rng)
        b = _mutated(rng, a, share=at % 2 == 0)
        for left, right in ((a, b), (b, a)):
            want = _recursive_tree_diff(left, right)
            assert tree_diff(left, right) == want
            found += want is not None
        after_shared += want is not None and _past_shared(b, a, want["path"])
    assert found > 4000  # most mutations show
    assert after_shared > 80


def _past_shared(a: XmlTree, b: XmlTree, path: str) -> bool:
    """Whether the walk to the divergence at ``path`` passes, at some level,
    a sibling pair whose two sides are the same object."""
    for place in re.findall(r"\[(\d+)\]", path):
        at = int(place)
        if any(x is y for x, y in zip(a.children[:at], b.children[:at])):
            return True
        a, b = a.children[at], b.children[at]
    return False


def test_tree_diff_reports_a_place_past_shared_rows():
    # two wrapper lists over the same row objects, which differ only in
    # the third tree of the second wrapper and in the last wrapper's count:
    # the shared trees before the divergence are skipped, but each keeps
    # its place
    rows = [[XmlTree("C", text=str(i)), XmlTree("T", text="t")] for i in range(3)]

    def view(extra: str, last: int) -> XmlTree:
        wrappers = [XmlTree("e", children=list(row)) for row in rows]
        wrappers[1].children.append(XmlTree("B", text=extra))
        wrappers[2].children = wrappers[2].children[:last]
        return XmlTree("v", children=wrappers)

    assert tree_diff(view("1", 2), view("2", 2)) == {
        "path": "v[1]/e[2]/B",
        "left": "<B>1</B>",
        "right": "<B>2</B>",
    }
    assert tree_diff(view("1", 2), view("1", 1))["path"] == "v[2]/e"
    assert tree_diff(view("1", 2), view("1", 2)) is None


class _CountedTree(XmlTree):
    """A node that counts reads of its child list."""

    __slots__ = ()
    reads = 0

    @property
    def children(self):
        _CountedTree.reads += 1
        return XmlTree.children.__get__(self)

    @children.setter
    def children(self, kids):
        XmlTree.children.__set__(self, kids)


def _chain(depth: int, bottom: str) -> XmlTree:
    node = _CountedTree("L", text=bottom)
    for _ in range(depth):
        node = _CountedTree("c", children=[node])
    return node


def test_tree_diff_walks_two_deep_chains_once():
    # a divergence at the bottom of two 3,000-deep chains: one lockstep
    # walk reads each node's child list a bounded number of times, where a
    # walk-down that re-compares the subtree below each level reads it once
    # per level above it
    depth = 3000
    a, b = _chain(depth, "1"), _chain(depth, "2")
    _CountedTree.reads = 0
    diff = tree_diff(a, b)
    assert diff == {
        "path": "c" + "[0]/c" * (depth - 1) + "[0]/L",
        "left": "<L>1</L>",
        "right": "<L>2</L>",
    }
    assert _CountedTree.reads <= 2 * 2 * (depth + 1)
    _CountedTree.reads = 0
    assert tree_diff(a, _chain(depth, "1")) is None
    assert _CountedTree.reads <= 2 * 2 * (depth + 1)


def test_generated_cases_pass_both_oracles():
    rng = random.Random(77)
    for gen in (gen_t1, gen_t2):
        for _ in range(15):
            case = gen(rng)
            out = translate(case.view, case.update)
            assert isinstance(out, Translated)
            report = verify_translation(
                case.view, case.update, out.statement, case.store
            )
            assert report.correct, report.view_diff
            assert report.minimal, report.witness


# ----------------------------------------------------------------------
# Minimality against a copy-and-replay reference


def _leave_one_out_reference(
    routes, sources: DocumentStore
) -> tuple[bool, Optional[Edit]]:
    """The plain leave-one-edit-out oracle: for each edit, replay the rest
    of the log on a fresh copy of ``sources``, an id-preserving copy of the
    store taken before route A, and build the view."""
    log = routes.log
    for dropped in range(len(log)):
        variant = sources.copy()
        replay_edits(log[:dropped] + log[dropped + 1 :], variant)
        if value_equal(evaluate_view(routes.view, variant).tree, routes.via_view.tree):
            return False, log[dropped]
    return True, None


def _store_state(store: DocumentStore) -> list[tuple[str, str, list[int]]]:
    return [
        (name, serialize(t), [n.node_id for n in iter_nodes(t)])
        for name, t in store.docs.items()
    ]


def test_no_smaller_subset_of_a_log_is_correct():
    # leave-one-out checks 1-minimality (Zeller & Hildebrandt, TSE 2002):
    # no single edit of a precise translation's log can go.  On the
    # translated cases of fuzz seed 0 whose logs hold 2-8 edits, no subset
    # leaving out two or more edits gives the directly updated view either
    rng = random.Random(0)
    logs = subsets = 0
    for _ in range(200):
        case = random_case(rng)
        out = translate(case.view, case.update)
        if not isinstance(out, Translated):
            continue
        sources = case.store.copy()
        direct = evaluate_view(case.view, sources)
        apply_update(case.update, direct)
        log = apply_update(out.statement, case.store)
        if not 2 <= len(log) <= 8:
            continue
        assert value_equal(evaluate_view(case.view, case.store).tree, direct.tree)
        logs += 1
        for kept in range(len(log) - 1):
            for subset in itertools.combinations(log, kept):
                variant = sources.copy()
                replay_edits(list(subset), variant)
                view = evaluate_view(case.view, variant).tree
                assert not value_equal(view, direct.tree), (case.update_text, subset)
                subsets += 1
    assert logs > 20 and subsets > 300


def test_minimality_matches_the_reference_oracle():
    # each generated translation is verified as translated, without its
    # appended condition and without its whole where clause; the last
    # over-updates rows the view's own condition hides
    rng = random.Random(5)
    checked = over_updates = 0
    for _ in range(200):
        case = random_case(rng)
        out = translate(case.view, case.update)
        if not isinstance(out, Translated):
            continue
        stmt = out.statement
        for conditions in (stmt.conditions, stmt.conditions[:-1], ()):
            variant = dataclasses.replace(stmt, conditions=conditions)
            sources = case.store.copy()
            with _compute_routes(case.view, case.update, variant, case.store) as routes:
                if not check_correctness(routes)[0]:
                    continue
                minimal, witness = check_minimality(routes)
                expected = _leave_one_out_reference(routes, sources)
            assert minimal == expected[0]
            assert witness is expected[1]
            checked += 1
            over_updates += not minimal
    assert checked > 150 and over_updates > 20


def test_probes_see_the_tuples_a_level_0_atom_hides_in_route_a():
    # route A deletes the first A's C children, so x/C="1" fails on it and
    # on the last A: an index that dropped those partial tuples would miss
    # the row a probe's undo brings back.  With a C reading 3 beside the 1,
    # dropping that deletion leaves the view as it is.
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/B where x/C="1" return <e>{y}</e>}</v>'
    )
    dv = parse_update('for u in v where u/e/B="b1" update u ( delete e )')
    ds = parse_update(
        'for x in doc("s")/R/A, y in x/B where y="b1" update x { delete C }'
    )
    answers = []
    for first in ("<C>1</C><C>1</C>", "<C>1</C><C>3</C>"):
        store = _single_doc_store(
            f"<R><A>{first}<B>b1</B></A><A><C>1</C><B>b2</B></A>"
            "<A><C>2</C><B>b3</B></A></R>"
        )
        sources = store.copy()
        with _compute_routes(view, dv, ds, store) as routes:
            assert check_correctness(routes)[0]
            minimal, witness = check_minimality(routes)
            expected = _leave_one_out_reference(routes, sources)
        assert minimal == expected[0]
        assert witness is expected[1]
        assert verify_translation(view, dv, ds, store).minimal == minimal
        answers.append(minimal)
        # the translation's where clause has the same level-0 atom
        out = translate(view, dv)
        report = verify_translation(view, dv, out.statement, store, out.case)
        assert report.precise
        assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]
    assert answers == [True, False]


# A view whose condition reads the string value of T, so the order of T's
# children decides which rows show.  The second A is hidden: its T reads
# "aycbd" before the update and "acd" after, and no K matches either.  Its
# K values are the string values T takes when its first Z comes back, or
# when its second Z comes back anywhere but between V and W.
ORDER_VIEW = (
    '<v>{for x in doc("s")/R/A where x/T=x/K return <e>{x/B}{x/T}</e>}</v>'
)
ORDER_XML = (
    "<R>"
    "<A><B>2</B><T><U>a</U><Z>y</Z><V>c</V><Z>b</Z><W>d</W></T>"
    "<K>aycd</K><K>bacd</K><K>abcd</K><K>acdb</K></A>"
    "<A><B>1</B><T><Z>x</Z><Q>p</Q></T><K>xp</K><K>p</K></A>"
    "</R>"
)
ORDER_DV = 'for r in v/e where r/B="1" update r/T { delete Z }'
# drops the view's condition and the update's, so it deletes the hidden Zs too
ORDER_PADDED = 'for x in doc("s")/R/A where x/T=x/T update x/T { delete Z }'


def test_deletion_witness_mid_log_is_put_back_in_place():
    view, dv = parse_view_def(ORDER_VIEW), parse_update(ORDER_DV)
    store = _single_doc_store(ORDER_XML)
    sources = store.copy()
    with _compute_routes(view, dv, parse_update(ORDER_PADDED), store) as routes:
        assert check_correctness(routes) == (True, None)
        # the log: the hidden A's two Zs, then the shown A's Z
        assert [serialize(e.tree) for e in routes.log] == [
            "<Z>y</Z>",
            "<Z>b</Z>",
            "<Z>x</Z>",
        ]
        state = _store_state(routes.store)
        minimal, witness = check_minimality(routes)
        assert _store_state(routes.store) == state
        expected = _leave_one_out_reference(routes, sources)

    # back between V and W, the second Z leaves the hidden A hidden
    hidden_t = locate(store.get("s"), ("A", "T"))[0]
    assert not minimal and witness is routes.log[1]
    assert isinstance(witness, Deleted)
    assert witness.parent_id == hidden_t.node_id
    assert witness.node_id == hidden_t.children[3].node_id
    assert witness.tree is hidden_t.children[3]  # the source's own subtree
    assert expected == (False, witness)


def test_minimal_root_deletion_leaves_route_a_store_unchanged():
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    store = _single_doc_store(
        "<R><A><C>1</C><T>a</T></A><A><C>2</C><T>b</T></A>"
        "<A><C>1</C><T>c</T></A><A><C>2</C><T>d</T></A></R>"
    )
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    with _compute_routes(view, dv, out.statement, store) as routes:
        assert len(routes.log) == 2
        state = _store_state(routes.store)
        assert check_minimality(routes) == (True, None)
        assert _store_state(routes.store) == state


def test_probe_with_a_row_missing_does_not_match():
    # the inserted W adds a row; undoing it leaves one wrapper short of the
    # directly updated instance, whose first wrapper it still matches
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/T/W return <e>{x/C}</e>}</v>'
    )
    store = _single_doc_store("<R><A><C>1</C><T><W>w</W></T></A></R>")
    dv = parse_update('for u in v where u/e/C="1" update u { insert <e><C>1</C></e> }')
    ds = parse_update('for x in doc("s")/R/A where x/C="1" update x/T { insert <W>n</W> }')
    sources = store.copy()
    with _compute_routes(view, dv, ds, store) as routes:
        assert check_correctness(routes) == (True, None)
        assert check_minimality(routes) == (True, None)
        assert _leave_one_out_reference(routes, sources) == (True, None)


def test_a_probe_restoring_a_child_two_levels_below_its_context(monkeypatch):
    # route A deletes both Cs of the first A, two levels below x, the
    # context of y's binding, which z's later binding extends.  Restoring
    # the first C brings back a tuple whose E reads 1, so a row; restoring
    # the second brings back one whose E reads 2, which the view hides, so
    # that deletion is the witness
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/B/C/D, z in y/E where z="1" '
        "return <e>{x/K}{z}</e>}</v>"
    )
    dv = parse_update('for u in v where u/e/K="k1" update u ( delete e )')
    ds = parse_update('for x in doc("s")/R/A where x/K="k1" update x/B { delete C }')
    store = _single_doc_store(
        "<R><A><K>k1</K><B><C><D><E>1</E></D></C><C><D><E>2</E></D></C></B></A>"
        "<A><K>k2</K><B><C><D><E>1</E></D></C></B></A></R>"
    )
    verdicts = []
    shows = verifier._ProbeIndex._restored_shows

    def recorded(index, probe, restored):
        shown = shows(index, probe, restored)
        verdicts.append((probe.chain[0].label, restored.label, shown))
        return verdicts[-1][2]

    monkeypatch.setattr(verifier._ProbeIndex, "_restored_shows", recorded)
    sources = store.copy()
    with _compute_routes(view, dv, ds, store) as routes:
        assert check_correctness(routes) == (True, None)
        minimal, witness = check_minimality(routes)
        expected = _leave_one_out_reference(routes, sources)
    assert (minimal, witness) == expected == (False, routes.log[1])
    assert verdicts == [("B", "C", True), ("B", "C", False)]


# ----------------------------------------------------------------------
# Minimality probes against a rebuilt view, one probe at a time

LABELS = "ABCD"


def _free_path(rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.sample(LABELS, rng.randint(1, 2)))


def _free_doc(rng: random.Random, paths: list[tuple[str, ...]]) -> str:
    """A document under R that mostly follows ``paths``, with leaves 1 or 2."""

    def grow(here: tuple[str, ...]) -> str:
        label = here[-1]
        depth = len(here)
        deeper = [p[depth] for p in paths if len(p) > depth and p[:depth] == here]
        if depth == 4 or (not deeper and rng.random() < 0.7):
            return f"<{label}>{rng.choice('12')}</{label}>"

        def child() -> str:
            on_path = deeper and rng.random() < 0.8
            return grow(here + (rng.choice(deeper if on_path else LABELS),))

        kids = "".join(child() for _ in range(rng.randint(0, 3)))
        return f"<{label}>{kids}</{label}>"

    firsts = [p[0] for p in paths]
    tops = "".join(grow((rng.choice(firsts),)) for _ in range(rng.randint(1, 3)))
    return f"<R>{tops}</R>"


def _free_case(rng: random.Random) -> tuple[str, str, str]:
    """A view over ``doc("s")``, a source update along its own paths, and a
    document that mostly follows those paths."""
    under = {"x": _free_path(rng)}  # each variable's path below R
    bindings = [f'x in doc("s")/R/{"/".join(under["x"])}']
    if rng.random() < 0.6:  # a variable chained below x
        step = _free_path(rng)
        under["y"] = under["x"] + step
        bindings.append(f'y in x/{"/".join(step)}')
    if rng.random() < 0.4:  # a second doc-rooted variable
        under["z"] = _free_path(rng)
        bindings.append(f'z in doc("s")/R/{"/".join(under["z"])}')
    names = list(under)
    paths = list(under.values())

    def operand() -> str:
        var = rng.choice(names)
        path = _free_path(rng) if rng.random() < 0.7 else ()
        paths.append(under[var] + path)
        return "/".join((var, *path))

    atoms = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        lhs = operand()
        rhs = operand() if rng.random() < 0.5 else f'"{rng.choice("12")}"'
        atoms.append(f"{lhs}={rhs}")
    returns = {}
    for _ in range(rng.randint(1, 2)):
        ret = operand()
        returns.setdefault(paths[-1][-1], ret)
    where = f" where {' and '.join(atoms)}" if atoms else ""
    view = (
        f"<v>{{for {', '.join(bindings)}{where} return "
        f"<e>{''.join('{' + r + '}' for r in returns.values())}</e>}}</v>"
    )

    cond = f'{operand()}="{rng.choice("12")}"' if rng.random() < 0.5 else "x=x"
    var = rng.choice(names)
    # the target and label lie on a path the view reads
    base = under[var]
    own = rng.choice([p[len(base) :] for p in paths if p[: len(base)] == base] + [()])
    own = own or _free_path(rng)
    cut = rng.randrange(len(own))
    target, label = "/".join((var, *own[:cut])), own[cut]
    paths.append(base + own)
    value = rng.choice("12")
    action = rng.choice(
        (
            f"{{ insert <{label}>{value}</{label}> }}",
            f"{{ delete {label} }}",
            f"{{ delete <{label}>{value}</{label}> }}",
            None,
        )
    )
    if action is None:
        target, action = f"{var}/..", f"{{ delete {under[var][-1]} }}"
    update = f"for {', '.join(bindings)} where {cond} update {target} {action}"
    return view, update, _free_doc(rng, paths)


@contextlib.contextmanager
def _own_routes(
    view: ViewDef, stmt: UpdateStatement, store: DocumentStore, *later: UpdateStatement
):
    """Routes whose directly updated instance is route A's own view, so every
    translation is correct and every probe is reached.  While the body runs,
    ``store`` is in route A's state, as inside ``_compute_routes``.  Route
    A applies ``stmt``, then each ``later`` statement, planned on the store
    the earlier ones left: its log is theirs, in that order, and its
    put-back record holds each parent's list from before the first."""
    plan = plan_update(stmt, store)
    with contextlib.ExitStack() as applied:
        log, put_back = applied.enter_context(verifier._executed(plan))
        for more in later:
            more_log, more_back = applied.enter_context(
                verifier._executed(plan_update(more, store))
            )
            log, put_back = log + more_log, {**more_back, **put_back}
        via_source = evaluate_view(view, store)
        own = ViewInstance(copy_tree(via_source.tree), via_source.tuples)
        index = verifier._ProbeIndex(view, store, Ancestry(store))
        # no view update is planned: the probes read no verdict
        yield _Routes(
            view,
            stmt,
            stmt,
            store,
            log,
            put_back,
            via_source,
            own,
            index,
            (plan.satisfied, []),
            None,  # nor is a context form read
        )


def _probes_against_rebuilt_views(routes, sources: DocumentStore) -> list[bool]:
    """Run each edit's probe alone and check its answer against the view
    built on a copy of ``sources`` (the store before route A) that lacks
    that edit; return, per edit, whether leaving it out changes the view."""
    log = routes.log
    state = _store_state(routes.store)
    changes = []
    for at, edit in enumerate(log):
        variant = sources.copy()
        replay_edits(log[:at] + log[at + 1 :], variant)
        same = value_equal(
            evaluate_view(routes.view, variant).tree, routes.via_view.tree
        )
        probe = dataclasses.replace(routes, log=[edit])
        assert check_minimality(probe) == (not same, edit if same else None), at
        assert _store_state(routes.store) == state
        changes.append(not same)
    return changes


def test_every_probe_matches_a_rebuilt_view():
    # each probe is judged against route A's own view, so it is reached
    # whether or not the update is a correct translation of anything.  Then
    # the whole log is checked at once, so that the probes of one parent
    # share its context: the verdict and the witness are the reference's,
    # the first edit whose leaving out changes nothing
    rng = random.Random(11)
    probes = changed = shared = 0
    for _ in range(1200):
        view_text, update_text, doc = _free_case(rng)
        with contextlib.ExitStack() as held:
            try:
                view, stmt = parse_view_def(view_text), parse_update(update_text)
                store = _single_doc_store(doc)
                sources = store.copy()
                routes = held.enter_context(_own_routes(view, stmt, store))
            except XviewError:
                continue
            changes = _probes_against_rebuilt_views(routes, sources)
            log = routes.log
            first = next((e for e, c in zip(log, changes) if not c), None)
            minimal, witness = check_minimality(routes)
            assert minimal == (first is None) and witness is first
            reached = log[: log.index(first) + 1] if first else log
            shared += len(reached) - len({e.parent_id for e in reached})
        probes += len(changes)
        changed += sum(changes)
    assert probes > 600 and changed >= 100 and shared >= 60


def _items_doc(*items: str) -> str:
    return "<R>" + "".join(f"<A>{item}</A>" for item in items) + "</R>"


@pytest.mark.parametrize(
    "view_text, updates, doc, witness",
    [
        # two Us under each T; the third A is hidden, so its first U goes
        (
            '<v>{for x in doc("s")/R/A where x/K="k" return <e>{x/T}</e>}</v>',
            ['for x in doc("s")/R/A where x/C="1" update x/T { delete U }'],
            _items_doc(
                "<K>k</K><C>1</C><T><U>a</U><W>w</W><U>b</U></T>",
                "<K>k</K><C>1</C><T><U>c</U><U>d</U></T>",
                "<K>j</K><C>1</C><T><U>e</U><U>f</U></T>",
                "<K>k</K><C>1</C><T><U>g</U><U>h</U></T>",
            ),
            4,
        ),
        # as above, every A shown: each probe changes its row
        (
            '<v>{for x in doc("s")/R/A return <e>{x/T}</e>}</v>',
            ['for x in doc("s")/R/A where x/C="1" update x/T { delete U }'],
            _items_doc(
                "<C>1</C><T><U>a</U><U>b</U></T>",
                "<C>2</C><T><U>c</U></T>",
                "<C>1</C><T><W>w</W><U>e</U><U>f</U></T>",
            ),
            None,
        ),
        # a root deletion: every edit lies under R, and the fourth A is hidden
        (
            '<v>{for x in doc("s")/R/A where x/K="k" return <e>{x/B}</e>}</v>',
            ['for x in doc("s")/R/A where x/C="1" update x/.. { delete A }'],
            _items_doc(
                "<K>k</K><C>1</C><B>1</B>",
                "<K>k</K><C>2</C><B>2</B>",
                "<K>k</K><C>1</C><B>3</B>",
                "<K>j</K><C>1</C><B>4</B>",
                "<K>k</K><C>1</C><B>5</B>",
            ),
            2,
        ),
        # a deletion and an insertion under each edited T: the view shows
        # the Us, not the inserted N, so the first insertion goes
        (
            '<v>{for x in doc("s")/R/A return <e>{x/T/U}</e>}</v>',
            [
                'for x in doc("s")/R/A where x/C="1" update x/T { delete U }',
                'for x in doc("s")/R/A where x/C="1" update x/T { insert <N>n</N> }',
            ],
            _items_doc(
                "<C>1</C><T><U>a</U><U>b</U></T>",
                "<C>2</C><T><U>c</U></T>",
                "<C>1</C><T><U>d</U></T>",
            ),
            3,
        ),
        # as above, with the Ts shown whole: no edit can go
        (
            '<v>{for x in doc("s")/R/A return <e>{x/T}</e>}</v>',
            [
                'for x in doc("s")/R/A where x/C="1" update x/T { delete U }',
                'for x in doc("s")/R/A where x/C="1" update x/T { insert <N>n</N> }',
            ],
            _items_doc(
                "<C>1</C><T><U>a</U><U>b</U></T>",
                "<C>1</C><T><U>d</U></T>",
            ),
            None,
        ),
        # two labels restored under one T: a G restores a tuple, so a row;
        # a U, of another label, restores none, so the first U goes
        (
            '<v>{for x in doc("s")/R/A, y in x/T/G return <e>{y}</e>}</v>',
            [
                'for x in doc("s")/R/A where x/C="1" update x/T { delete G }',
                'for x in doc("s")/R/A where x/C="1" update x/T { delete U }',
            ],
            _items_doc(
                "<C>1</C><T><G>g1</G><U>u1</U></T>",
                "<C>1</C><T><U>u2</U><G>g2</G></T>",
            ),
            2,
        ),
        # the hit tuple's flag is tested per probe: restoring u2 shows the
        # first A's row, restoring u1 next does not
        (
            '<v>{for x in doc("s")/R/A where x/T/U="u2" return <e>{x/K}</e>}</v>',
            ['for x in doc("s")/R/A where x/C="1" update x/T { delete U }'],
            _items_doc(
                "<K>k1</K><C>1</C><T><U>u2</U><U>u1</U></T>",
                "<K>k2</K><C>1</C><T><U>u2</U></T>",
            ),
            1,
        ),
        # the kept U=2 shows the A while its N is there: restoring U=1
        # keeps the A's flag but changes its row; undoing the insertion
        # next hides the A, with its row as route A has it
        (
            '<v>{for x in doc("s")/R/A where x/T/N="n" return <e>{x/T/U}</e>}</v>',
            [
                'for x in doc("s")/R/A where x/C="1" update x/T { delete <U>1</U> }',
                'for x in doc("s")/R/A where x/C="1" update x/T { insert <N>n</N> }',
            ],
            _items_doc("<C>1</C><T><U>1</U><U>2</U></T>"),
            None,
        ),
    ],
    ids=[
        "two-us-under-each-t",
        "two-us-under-each-t-all-shown",
        "root-deletion",
        "deletion-and-insertion",
        "deletion-and-insertion-all-shown",
        "two-labels-under-one-t",
        "flag-per-probe",
        "flag-after-a-kept-flag",
    ],
)
def test_probes_sharing_a_parent_match_the_reference(view_text, updates, doc, witness):
    # logs that put several edits under one parent, so that the probes
    # after that parent's first read the context its first probe made: the
    # whole log's verdict and witness are the copy-and-replay reference's,
    # and each probe alone matches a rebuilt view
    view = parse_view_def(view_text)
    first, *later = map(parse_update, updates)
    store = _single_doc_store(doc)
    sources = store.copy()
    with _own_routes(view, first, store, *later) as routes:
        log = routes.log
        reached = len(log) if witness is None else witness + 1
        parents = [e.parent_id for e in log[:reached]]
        assert len(set(parents)) < len(parents)
        expected = (True, None) if witness is None else (False, log[witness])
        assert _check_against_reference(routes, sources) == expected
        changes = _probes_against_rebuilt_views(routes, sources)
    assert changes[:reached] == [True] * (reached - 1) + [witness is None]


@pytest.mark.parametrize(
    "view_text, update_text, doc, changes",
    [
        # each restored A shows no row, unless it also holds C="1"
        (
            '<v>{for x in doc("s")/R/A where x/C="1" return <e>{x/B}</e>}</v>',
            'for x in doc("s")/R/A where x/C="2" update x/.. { delete A }',
            "<R><A><B>a</B><C>2</C></A><A><B>b</B><C>1</C></A>"
            "<A><B>c</B><C>1</C><C>2</C></A><A><B>d</B><C>2</C></A></R>",
            [False, True, False],
        ),
        # the where clause reads x, bound a level above the restored A over
        # other nodes: an A shows rows only when some K shares its C
        (
            '<v>{for x in doc("s")/R/K, y in doc("s")/R/A where x/C=y/C '
            "return <e>{x/B}{y/G}</e>}</v>",
            'for y in doc("s")/R/A where y/D="1" update y/.. { delete A }',
            "<R><K><B>k</B><C>1</C></K><A><G>a</G><C>1</C><D>1</D></A>"
            "<K><B>l</B><C>3</C></K><A><G>b</G><C>2</C><D>1</D></A>"
            "<A><G>c</G><C>3</C><D>1</D></A></R>",
            [True, False, True],
        ),
        # the restored B lies two steps below the binding's context, R
        (
            '<v>{for y in doc("s")/R/A/B/E where y="1" return <e>{y}</e>}</v>',
            'for x in doc("s")/R/A, b in x/B where b/F="1" update b/.. { delete B }',
            "<R><A><B><E>1</E><F>1</F></B><B><E>2</E><F>1</F></B>"
            "<B><E>1</E></B></A></R>",
            [True, False],
        ),
        # the restored A is reached at both levels: as x it shows no row, so
        # its rows come only from the later batch, each old x with a y below
        # the restored A
        (
            '<v>{for x in doc("s")/R/A, y in doc("s")/R/A/B where x/K="1" '
            'and y/K="1" return <e>{x/K}{y}</e>}</v>',
            'for x in doc("s")/R/A where x/K="2" update x/.. { delete A }',
            "<R><A><K>1</K></A><A><K>2</K><B><K>1</K></B></A></R>",
            [True],
        ),
    ],
    ids=[
        "restored-rows-hidden",
        "where-reads-an-outer-binding",
        "deep-binding-path",
        "rows-in-a-later-level",
    ],
)
def test_a_probe_reaching_no_indexed_tuple_stops_at_the_first_row(
    view_text, update_text, doc, changes, monkeypatch
):
    # no tuple binds the parent of the restored child or one of its
    # ancestors, so each probe can only add rows: it is decided by whether a
    # tuple through that child shows one, with no row compared and no view
    # evaluated
    view, stmt = parse_view_def(view_text), parse_update(update_text)
    store = _single_doc_store(doc)
    sources = store.copy()

    def compared(*_args):
        raise AssertionError("a probe that can only add rows compares none")

    monkeypatch.setattr(verifier, "_same_row", compared)
    monkeypatch.setattr(verifier._ProbeIndex, "_view_matches", compared)
    with _own_routes(view, stmt, store) as routes:
        assert _probes_against_rebuilt_views(routes, sources) == changes


@pytest.mark.parametrize(
    "payload, changes", [("1", [True, True]), ("2", [False, False])]
)
def test_a_probe_removing_an_insertion_hides_the_rows_it_showed(payload, changes):
    # no tuple binds an A or R, but the view binds the inserted Bs
    # themselves: undoing an insertion takes away the row it showed, if any
    view = parse_view_def(
        '<v>{for y in doc("s")/R/A/B where y="1" return <e>{y}</e>}</v>'
    )
    stmt = parse_update(
        f'for x in doc("s")/R/A where x/C="1" update x {{ insert <B>{payload}</B> }}'
    )
    store = _single_doc_store("<R><A><C>1</C></A><A><C>1</C><B>1</B></A></R>")
    sources = store.copy()
    with _own_routes(view, stmt, store) as routes:
        assert _probes_against_rebuilt_views(routes, sources) == changes


# Shapes a probe must re-check through the index, each against the reference


def _check_against_reference(
    routes, sources: DocumentStore
) -> tuple[bool, Optional[Edit]]:
    expected = _leave_one_out_reference(routes, sources)
    got = check_minimality(routes)
    assert got[0] == expected[0] and got[1] is expected[1]
    return got


def test_probe_finds_a_restored_row_when_route_a_has_no_row():
    # the deletion removes every row, and the variant without a where
    # clause every A: then route A's store has no tuple at all, and a
    # restored A is found only through the partial indexed under R
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A where x/C="1" return <e>{x/B}{x/C}</e>}</v>'
    )
    store = _single_doc_store(
        "<R><A><B>a</B><C>1</C></A><A><B>b</B><C>2</C></A><A><B>c</B><C>1</C></A></R>"
    )
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    sources = store.copy()
    with _compute_routes(view, dv, out.statement, store) as routes:
        assert check_correctness(routes)[0] and not routes.via_source.tuples
        assert _check_against_reference(routes, sources) == (True, None)

    padded = dataclasses.replace(out.statement, conditions=())
    with _compute_routes(view, dv, padded, store) as routes:
        assert check_correctness(routes)[0]
        assert enumerate_bindings(view.bindings, routes.store) == []
        # the hidden A
        assert _check_against_reference(routes, sources) == (False, routes.log[1])


def test_probe_restores_a_node_into_both_sides_of_a_self_join():
    # x and y range over the same As; a restored A joins as x, as y and
    # with itself
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in doc("s")/R/A where x/C=y/D '
        "return <e>{x/B}{y/E}</e>}</v>"
    )
    store = _single_doc_store(
        "<R>"
        "<A><B>1</B><C>1</C><D>2</D><E>1</E><F>0</F></A>"
        "<A><B>2</B><C>2</C><D>1</D><E>2</E><F>1</F></A>"
        "<A><B>3</B><C>3</C><D>3</D><E>3</E><F>1</F></A>"
        "<A><B>4</B><C>4</C><D>5</D><E>4</E><F>1</F></A>"
        "</R>"
    )
    # the second A joins the first both ways, the third joins itself, and
    # the fourth joins nothing
    stmt = parse_update(
        'for x in doc("s")/R/A, y in doc("s")/R/A where x/F="1" '
        "update x/.. { delete A }"
    )
    sources = store.copy()
    with _own_routes(view, stmt, store) as routes:
        assert len(routes.log) == 3 and routes.via_source.tuples == []
        assert _probes_against_rebuilt_views(routes, sources) == [True, True, False]
        assert _check_against_reference(routes, sources) == (False, routes.log[2])


def test_probe_extends_every_book_through_a_restored_subject(qbk_view, qbk_store):
    # the restored subj is reached from its uni, under each of the four
    # books' partials; only the DB book joins it
    stmt = parse_update(
        'for x in doc("bkInf.xml")/bkInf/book, y in doc("subjInf.xml")/subjInf/uni, '
        'z in y/subjs/subj where z/sName="DataBasics" update z/.. { delete subj }'
    )
    sources = qbk_store.copy()
    with _own_routes(qbk_view, stmt, qbk_store) as routes:
        assert len(routes.log) == 1 and isinstance(routes.log[0], Deleted)
        assert len(routes.via_source.tuples) == 3
        assert _probes_against_rebuilt_views(routes, sources) == [True]
        assert _check_against_reference(routes, sources) == (True, None)


def test_probe_rechecks_a_row_an_insertion_hid():
    # inserting under T changes T's string value: the first A's row hides,
    # while the second A's row was hidden before and stays hidden
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A where x/T="1" return <e>{x/B}</e>}</v>'
    )
    store = _single_doc_store(
        "<R><A><B>a</B><T><U>1</U></T></A><A><B>b</B><T><U>2</U></T></A></R>"
    )
    stmt = parse_update(
        'for x in doc("s")/R/A where x=x update x/T { insert <U>3</U> }'
    )
    sources = store.copy()
    with _own_routes(view, stmt, store) as routes:
        assert [isinstance(e, Inserted) for e in routes.log] == [True, True]
        assert routes.via_source.tuples == []
        assert _probes_against_rebuilt_views(routes, sources) == [True, False]
        assert _check_against_reference(routes, sources) == (False, routes.log[1])


def test_probe_compares_rows_that_move_past_unchanged_rows():
    # undoing the deletion turns A's T from "1" into "12", so A's row moves
    # from Z1's block to Z2's, past the rows of the other two As
    view = parse_view_def(
        '<v>{for z in doc("s")/R/Z, x in doc("s")/R/A where x/T=z '
        "return <e>{x/B}</e>}</v>"
    )
    stmt = parse_update(
        'for x in doc("s")/R/A where x/B="a" update x/T { delete <U>2</U> }'
    )
    for middle, moved_rows_differ in (("a", False), ("p", True)):
        # the rows read a, middle, a before the undo and middle, a, a after
        store = _single_doc_store(
            "<R><Z>1</Z><Z>12</Z>"
            "<A><B>a</B><T><U>1</U><U>2</U></T></A>"
            f"<A><B>{middle}</B><T><U>1</U></T></A>"
            "<A><B>a</B><T><U>1</U></T></A></R>"
        )
        sources = store.copy()
        with _own_routes(view, stmt, store) as routes:
            assert len(routes.via_source.tuples) == 3
            assert _probes_against_rebuilt_views(routes, sources) == [moved_rows_differ]
            assert _check_against_reference(routes, sources)[0] == moved_rows_differ


def test_probe_places_a_restored_tuple_in_nested_loop_order():
    # the undo restores A's second Z and turns A's P from "1" into "12": A's
    # two rows, one per V "1", become two rows with the V "12", one of them
    # through the restored Z; the row count stays as it was
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/P/Z, v in doc("s")/R/V where x/P=v '
        "return <e>{x/B}</e>}</v>"
    )
    stmt = parse_update(
        'for x in doc("s")/R/A where x/B="a" update x/P { delete <Z>2</Z> }'
    )
    for first in ("a", "p"):
        store = _single_doc_store(
            f"<R><A><B>{first}</B><P><Z>12</Z></P></A>"
            "<A><B>a</B><P><Z>1</Z><Z>2</Z></P></A>"
            "<A><B>q</B><P><Z>12</Z></P></A>"
            "<V>1</V><V>1</V><V>12</V></R>"
        )
        sources = store.copy()
        with _own_routes(view, stmt, store) as routes:
            assert len(routes.via_source.tuples) == 4
            # only where the restored row lands decides: the rows stay
            # first, a, a, q either way
            assert _probes_against_rebuilt_views(routes, sources) == [False]
            assert _check_against_reference(routes, sources) == (False, routes.log[0])


@pytest.mark.parametrize(
    "run, reevaluates",
    [
        (lambda: cli.main(["fuzz", "--seed", "7", "--count", "300"]), False),
        (lambda: verify_translation(*_root_deletion_case(160)), False),
        (lambda: verify_translation(*_join_t1_case()), False),
        (test_probe_compares_rows_that_move_past_unchanged_rows, True),
        (
            lambda: test_a_probe_removing_an_insertion_hides_the_rows_it_showed(
                "1", [True, True]
            ),
            True,
        ),
        (test_probe_places_a_restored_tuple_in_nested_loop_order, True),
    ],
    ids=[
        "fuzz-seed-7",
        "t4-root-deletion",
        "join-t1-insertion",
        "flag-flips",
        "bound-node-gone",
        "tuple-appears-beside-a-hit",
    ],
)
def test_probes_evaluate_the_view_only_where_rows_can_shift(
    run, reevaluates, monkeypatch
):
    # the fuzz batch and the benchmark's verifies decide every probe off the
    # index; a hit tuple whose flag flips, a removed bound node, or a
    # restored tuple showing a row beside a hit one sends a probe to an
    # evaluation of the whole view
    probes, views = [0], [0]
    index = verifier._ProbeIndex
    probe, view_matches = index.unchanged_without, index._view_matches

    def counting_probe(*args):
        probes[0] += 1
        return probe(*args)

    def counting_view(*args):
        views[0] += 1
        return view_matches(*args)

    monkeypatch.setattr(index, "unchanged_without", counting_probe)
    monkeypatch.setattr(index, "_view_matches", counting_view)
    run()
    assert probes[0] > 0
    assert (views[0] > 0) == reevaluates, views


def _counting_eval_condition(monkeypatch) -> list[int]:
    """Count the ``eval_condition`` calls every where-clause pass makes, in
    the one-element list returned."""
    calls = [0]
    real = evaluator.eval_condition

    def counting(atoms, tup):
        calls[0] += 1
        return real(atoms, tup)

    monkeypatch.setattr(evaluator, "eval_condition", counting)
    return calls


def test_minimality_checks_grow_linearly_with_the_document(monkeypatch):
    # a T4 root deletion of half the items, under a view whose where clause
    # every item meets: each probe tests the clause on its restored item
    # alone (the index is built with route A's view, before the check),
    # where re-checking every tuple per probe would grow with the square of
    # the document
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A where x/K="k" return <e>{x/C}{x/T}</e>}</v>'
    )
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    checks = []
    for items in (40, 160):
        doc = "".join(
            f"<A><K>k</K><C>{1 + i % 2}</C><T><W>w{i}</W></T></A>"
            for i in range(items)
        )
        store = _single_doc_store(f"<R>{doc}</R>")
        with _compute_routes(view, dv, out.statement, store) as routes:
            assert len(routes.log) == items // 2
            # count the minimality check's tests only, not the index's
            with monkeypatch.context() as m:
                calls = _counting_eval_condition(m)
                assert check_minimality(routes) == (True, None)
            checks.append(calls[0])
    assert checks == [20, 80]


def test_a_t4_verify_tests_each_where_clause_once_per_tuple(monkeypatch):
    # the bench's deletion: a view with no where clause, and a T4 root
    # deletion of half of N items.  Only the two plans test a clause, once
    # per tuple each: the source plan x1/C="1" on the items, the view
    # update's plan u/e/C="1" on the wrappers.  The evaluation, the probe
    # index and the probes test nothing, and L3 reads the plans' verdicts.
    # Before L3 read them, a verify made 6N tests: N for the evaluation, N
    # per plan, N/2 for the index, N/2 for the probes, and 2N in L3; the
    # probes' N/2 went when they tested the clause only where there is one.
    view = parse_view_def('<v>{for x1 in doc("d")/R/A return <e>{x1/C}{x1/T}</e>}</v>')
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    calls = _counting_eval_condition(monkeypatch)
    rng = random.Random(3)
    for items in (8, 160):
        marks = ["1", "2"] * (items // 2)
        rng.shuffle(marks)
        doc = "".join(
            f"<A><C>{mark}</C><T><W>w{i}</W></T></A>" for i, mark in enumerate(marks)
        )
        store = DocumentStore()
        store.add("d", parse_document(f"<R>{doc}</R>"))
        calls[0] = 0
        report = verify_translation(view, dv, out.statement, store, out.case)
        assert report.passed
        assert calls[0] == 2 * items


def test_route_a_view_and_probe_index_share_one_enumeration(monkeypatch):
    # from route A's execution to the end of the minimality check, the
    # view's first binding is enumerated once, for the probe index that
    # route A's view is read off; the check builds no index of its own
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    doc = "".join(f"<A><C>{1 + i % 2}</C><T><W>w{i}</W></T></A>" for i in range(160))
    first = view.bindings[0]
    events: list[str] = []

    def record(name, counted=lambda *args: True):
        # "name" on entry if counted, "/name" on every exit
        func = getattr(verifier, name)

        def recorded(*args):
            if counted(*args):
                events.append(name)
            result = func(*args)
            events.append("/" + name)
            return result

        monkeypatch.setattr(verifier, name, recorded)

    record("bind_level", lambda binding, *_: binding == first)
    for name in ("execute_plan", "_ProbeIndex", "check_minimality"):
        record(name)
    store = _single_doc_store(f"<R>{doc}</R>")
    assert verify_translation(view, dv, out.statement, store).precise
    window = events[events.index("/execute_plan") : events.index("/check_minimality")]
    assert window.count("bind_level") == 1
    assert "_ProbeIndex" not in window[window.index("check_minimality") :]


def test_an_empty_log_builds_no_probe_only_index_parts(monkeypatch):
    # where no item reads C="1", the translated root deletion deletes
    # nothing: the verification has no edit to probe, so it builds none of
    # the index's probe-only parts.  The verifier's ancestor reader reads
    # child lists only for an edit parent that is not a document root: the
    # root deletion's edits all land under R, so it reads none; the label
    # deletion's land under the Ts, so it reads R's and the As' child lists,
    # the levels above them.  Its view plan's land under copied Ts, and the
    # copy rule asks nothing about a node of a copied row, whose fresh ids
    # the store does not hold, so no level below the Ts is read
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    root_deletion = 'for u in v where u/e/C="1" update u ( delete e )'
    label_deletion = 'for r in v/e where r/C="1" update r/T ( delete W )'
    readers, prepared = [], []
    prepare = verifier._ProbeIndex.prepare_probes
    monkeypatch.setattr(verifier, "Ancestry", _recorded_ancestry(readers))
    monkeypatch.setattr(
        verifier._ProbeIndex,
        "prepare_probes",
        lambda index: prepared.append(index) or prepare(index),
    )
    for update, marks, above_ts, builds in (
        (root_deletion, "22", False, 0),
        (root_deletion, "12", False, 1),
        (label_deletion, "12", True, 1),
    ):
        dv = parse_update(update)
        out = translate(view, dv)
        assert isinstance(out, Translated)
        items = "".join(f"<A><C>{m}</C><T><W>w</W></T></A>" for m in marks * 4)
        store = _single_doc_store(f"<R>{items}</R>")
        readers.clear()
        prepared.clear()
        report = verify_translation(view, dv, out.statement, store, out.case)
        assert report.precise and all(ok for _n, ok in report.lemma_checks)
        (reader,) = readers
        read = _child_lists_read(reader)
        lists = 1 + len(store.get("s").children)  # R's and the As'
        assert (read, len(prepared)) == (lists if above_ts else 0, builds), update


ITEMS_VIEW = '<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>'
ROOT_DELETION = 'for u in v where u/e/C="1" update u ( delete e )'
LABEL_DELETION = 'for r in v/e where r/C="1" update r/T ( delete W )'


def _recorded_ancestry(readers: list) -> type:
    """An ``Ancestry`` that appends each instance made to ``readers``."""

    class Recorded(Ancestry):
        def __init__(self, store: DocumentStore) -> None:
            super().__init__(store)
            readers.append(self)

    return Recorded


def _child_lists_read(reader: Ancestry) -> int:
    """How many nodes' child lists ``reader`` has read: those of every level
    but the last, the one not yet read."""
    return sum(map(len, reader.levels[:-1]))


def test_a_root_deletion_verify_reads_only_the_roots_child_lists(monkeypatch):
    # a T4 verify on 160 items: each plan's binding deletions read one
    # child list, the root's (the source root in the source plan, the
    # instance root in route B's), and the verifier's reader reads none,
    # since every edit parent is a document root
    view, dv, ds, store = _root_deletion_case(160)
    planned, checked = [], []
    monkeypatch.setattr(updater, "Ancestry", _recorded_ancestry(planned))
    monkeypatch.setattr(verifier, "Ancestry", _recorded_ancestry(checked))
    assert verify_translation(view, dv, ds, store, Case.T4).passed
    assert [reader.levels[0][0].label for reader in planned] == ["R", "v"]
    assert [_child_lists_read(reader) for reader in planned] == [1, 1]
    assert [len(reader.levels[1]) for reader in planned] == [160, 160]
    assert [_child_lists_read(reader) for reader in checked] == [0]


def _items_store(count: int) -> DocumentStore:
    """``count`` items, alternately C=1 and C=2, each with one T of two Ws."""
    items = "".join(
        f"<A><C>{1 + i % 2}</C><T><W>w{i}</W><W>v{i}</W></T></A>" for i in range(count)
    )
    return _single_doc_store(f"<R>{items}</R>")


@pytest.mark.parametrize("update", [ROOT_DELETION, LABEL_DELETION], ids=["T4", "label"])
def test_probes_of_one_parent_read_its_chain_and_redo_store_once(update, monkeypatch):
    # a verify on 160 items: each edit parent's chain is asked for once,
    # and one store holding it is built, at its first probe; every probe
    # still replays its own redo.  The T4 deletion's 80 edits all lie under
    # R: one chain and one store for 80 probes.  The label deletion's 160
    # lie two under each T of the 80 matching items
    view = parse_view_def(ITEMS_VIEW)
    dv = parse_update(update)
    out = translate(view, dv)
    assert isinstance(out, Translated)
    store = _items_store(160)
    probing, counts = [False], {"chain": 0, "store": 0, "replay": 0}
    check, replay = verifier.check_minimality, verifier.replay_edits

    class Counted(Ancestry):
        def chain(self, node):
            counts["chain"] += probing[0]
            return super().chain(node)

    class CountedStore(DocumentStore):
        def __init__(self):
            counts["store"] += probing[0]
            super().__init__()

    def checking(routes):
        probing[0] = True
        try:
            return check(routes)
        finally:
            probing[0] = False

    def replaying(edits, redo, places=None):
        counts["replay"] += probing[0]
        return replay(edits, redo, places)

    monkeypatch.setattr(verifier, "Ancestry", Counted)
    monkeypatch.setattr(verifier, "DocumentStore", CountedStore)
    monkeypatch.setattr(verifier, "check_minimality", checking)
    monkeypatch.setattr(verifier, "replay_edits", replaying)
    seen = []
    compute = verifier._compute_routes

    @contextlib.contextmanager
    def recording(*args):
        with compute(*args) as routes:
            seen.append(routes.log)
            yield routes

    monkeypatch.setattr(verifier, "_compute_routes", recording)
    assert verify_translation(view, dv, out.statement, store, out.case).passed
    ((log,),) = [seen]
    parents = len({edit.parent_id for edit in log})
    assert (parents, len(log)) == ((1, 80) if update == ROOT_DELETION else (80, 160))
    assert counts == {"chain": parents, "store": parents, "replay": len(log)}


@pytest.mark.parametrize("update", [ROOT_DELETION, LABEL_DELETION], ids=["T4", "label"])
def test_each_redo_removes_its_child_at_the_restore_point(update, monkeypatch):
    # a probe's undo puts a deleted child back at its restore point, and the
    # redo is handed that point: on 160 items no redo falls back to scanning
    # the parent's child list, for the T4 deletion's 80 children of R or the
    # label deletion's 160 Ws, two under each matching T
    view, dv = parse_view_def(ITEMS_VIEW), parse_update(update)
    out = translate(view, dv)
    at_point: list[bool] = []
    mutate = updater._mutate

    def watched(parent, edit, at=None):
        kids = parent.children or []
        at_point.append(at is not None and at < len(kids) and kids[at] is edit.tree)
        return mutate(parent, edit, at)

    monkeypatch.setattr(updater, "_mutate", watched)
    report = verify_translation(view, dv, out.statement, _items_store(160), out.case)
    assert report.passed
    assert at_point == [True] * (80 if update == ROOT_DELETION else 160)


def test_a_redo_off_its_restore_point_finds_the_child_by_id():
    # a place that does not hold the logged subtree, or none, falls back to
    # the id scan, which on an id-preserving copy finds the copy of it
    store = _single_doc_store("<R><A>1</A><A>2</A><A>3</A></R>")
    root = store.get("s")
    second = root.children[1]
    edit = Deleted(root.node_id, second.node_id, second)
    for at in (0, 1, 3, None):
        copy = store.copy()
        replay_edits([edit], copy, None if at is None else {second.node_id: at})
        assert serialize(copy.get("s")) == "<R><A>1</A><A>3</A></R>", at
    assert len(root.children) == 3  # the original is untouched


def test_a_redo_at_its_restore_point_keeps_a_decoy_of_the_same_id():
    # an id-preserving copy holds the copy of the deleted A before the
    # restore point, and the logged subtree itself at it: the redo removes
    # the logged subtree there, where a scan by id would take the decoy
    store = _single_doc_store("<R><A>1</A><A>2</A><A>3</A></R>")
    root = store.get("s")
    second = root.children[1]
    edit = Deleted(root.node_id, second.node_id, second)
    copy = store.copy()
    kids = copy.get("s").children
    decoy = kids[1]
    assert decoy.node_id == second.node_id and decoy is not second
    kids.insert(2, second)
    replay_edits([edit], copy, {second.node_id: 2})
    assert [kid.node_id for kid in kids] == [kid.node_id for kid in root.children]
    assert kids[1] is decoy and all(kid is not second for kid in kids)


# ----------------------------------------------------------------------
# Restored batches of a view with no where clause, decided unbuilt


def _built_batches(index, probe, restored: XmlTree) -> list[tuple]:
    """Every batch a restored child of ``probe``'s parent adds, built as a
    view with a where clause needs it: per batch, in the order probes take
    them, the depth of its context in the parent's chain, whether later
    bindings extend it, how many nodes its path reaches below the child, and
    whether it shows a row."""
    bindings, batches = index.view.bindings, []
    below = (restored.label,)
    for depth, context in enumerate(probe.chain):
        for i, binding in enumerate(bindings):
            partials = index.partials.get((i, context.node_id))
            if partials and index.steps[i][: len(below)] == below:
                nodes = locate(restored, index.steps[i][len(below) :])
                evaluator.check_product(partials, binding.var, len(nodes))
                level = [{**p, binding.var: n} for p in partials for n in nodes]
                for later in bindings[i + 1 :]:
                    level = evaluator.bind_level(later, level, index.store)
                later = i + 1 < len(bindings)
                batches.append((depth, later, len(nodes), any(index.holds(level))))
        below = (context.label,) + below
    return batches


def _batches_checked(monkeypatch) -> dict[str, int]:
    """Check every restored-batch verdict against ``_built_batches`` and
    count, over the probes, those whose batches up to the first showing one
    include: a built batch, an unbuilt one, an unbuilt one whose path reaches
    nothing below the restored child, an unbuilt one above the parent, and
    batches at more than one context of the chain."""
    seen = {"later": 0, "unbuilt": 0, "empty": 0, "up the chain": 0, "contexts": 0}
    shows = verifier._ProbeIndex._restored_shows

    def compared(index, probe, restored):
        got = shows(index, probe, restored)
        batches = _built_batches(index, probe, restored)
        first = next((k for k, b in enumerate(batches) if b[3]), len(batches))
        reached = batches[: first + 1]
        assert got == (first < len(batches))
        seen["later"] += any(later for _, later, _, _ in reached)
        seen["unbuilt"] += any(not later for _, later, _, _ in reached)
        seen["empty"] += any(not later and not n for _, later, n, _ in reached)
        seen["up the chain"] += any(d and not later for d, later, _, _ in reached)
        seen["contexts"] += len({d for d, *_ in reached}) > 1
        return got

    monkeypatch.setattr(verifier._ProbeIndex, "_restored_shows", compared)
    return seen


def _chained_free_case(rng: random.Random) -> tuple[str, str, str]:
    """A view with no where clause whose bindings ``x``, ``z`` and ``y`` all
    run through the children of ``x`` the update deletes: ``y`` in ``x/P``
    (and maybe a step below), and ``z`` from the document root down through
    ``x/P``.  A restored ``P`` whose batch of ``y`` under its ``x`` reaches
    nothing is then decided at the root by ``z``'s batch, extended by ``y``.
    ``_free_case`` seldom draws either shape (neither in 3,000 draws at seed
    23): its doc-rooted bindings seldom run through a chained one's path."""
    x = _free_path(rng)
    step = tuple(rng.sample([n for n in LABELS if n not in x], rng.randint(1, 2)))
    z = x + step[: rng.randint(1, len(step))]
    bound = f'doc("s")/R/{"/".join(x)}'
    view = (
        f'<v>{{for x in {bound}, z in doc("s")/R/{"/".join(z)}, '
        f'y in x/{"/".join(step)} return <e>{{y}}</e>}}</v>'
    )
    update = f'for x in {bound} where x/K="1" update x {{ delete {step[0]} }}'
    return view, update, _free_doc(rng, [x + step, x + ("K",)])


def test_clause_free_batches_decide_as_the_built_batches(monkeypatch):
    # on free views with no where clause, every restored-batch verdict is
    # that of building each batch in turn, every probe that of a rebuilt
    # view, and each log's verdict and witness the copy-and-replay
    # reference's.  The chained draws reach batches whose path reaches
    # nothing, and probes deciding at two contexts of the chain
    seen = _batches_checked(monkeypatch)
    rng = random.Random(23)
    draws = itertools.chain(
        (_free_case(rng) for _ in range(3000)),
        (_chained_free_case(rng) for _ in range(400)),
    )
    logs = 0
    for view_text, update_text, doc in draws:
        with contextlib.ExitStack() as held:
            try:
                view, stmt = parse_view_def(view_text), parse_update(update_text)
                if view.conditions:
                    continue
                store = _single_doc_store(doc)
                sources = store.copy()
                routes = held.enter_context(_own_routes(view, stmt, store))
            except XviewError:
                continue
            if not routes.log:
                continue
            _probes_against_rebuilt_views(routes, sources)
            _check_against_reference(routes, sources)
            logs += 1
    assert logs > 300
    assert seen["later"] > 100 and seen["unbuilt"] > 300, seen
    assert seen["up the chain"] > 100, seen
    assert seen["empty"] > 0 and seen["contexts"] > 0, seen


@pytest.mark.parametrize(
    "view_text, update_text, doc, changes, witness",
    [
        # the first restored A holds no B: its batch reaches nothing, so
        # leaving that deletion out changes no row
        (
            '<v>{for x in doc("s")/R/A/B return <e>{x}</e>}</v>',
            'for a in doc("s")/R/A where a/K="1" update a/.. { delete A }',
            "<R><A><K>1</K></A><A><K>1</K><B>b</B></A><A><B>c</B></A></R>",
            [False, True],
            0,
        ),
        # the restored B holds no C, so z's batch under its A reaches
        # nothing; the batch of y up at R, extended by x and z, shows a row
        (
            '<v>{for y in doc("s")/R/A/B, x in doc("s")/R/A, z in x/B/C '
            "return <e>{y}{z}</e>}</v>",
            'for a in doc("s")/R/A where a/K="1" update a { delete B }',
            "<R><A><K>1</K><B>b</B></A><A><B><C>c</C></B></A></R>",
            [True],
            None,
        ),
    ],
    ids=["nothing-located", "two-contexts"],
)
def test_clause_free_batches_that_reach_nothing_or_lie_up_the_chain(
    view_text, update_text, doc, changes, witness, monkeypatch
):
    seen = _batches_checked(monkeypatch)
    view, stmt = parse_view_def(view_text), parse_update(update_text)
    store = _single_doc_store(doc)
    sources = store.copy()
    with _own_routes(view, stmt, store) as routes:
        assert _probes_against_rebuilt_views(routes, sources) == changes
        minimal, found = _check_against_reference(routes, sources)
        assert found is (None if witness is None else routes.log[witness])
    assert seen["empty"] > 0
    assert (seen["contexts"] > 0) == (witness is None)


@pytest.mark.parametrize("where", ["", ' where y="4"'], ids=["clause-free", "where"])
def test_a_restored_batch_past_the_budget_raises_as_the_product_would(
    where, monkeypatch
):
    # route A deletes the B of three Cs.  With a budget of 5 tuples, the
    # view on route A's store, 2 As by 1 C, fits, but the restored B's
    # batch, 2 partials by 3 Cs, does not: decided unbuilt or built, the
    # probe raises at the partial, and with the message, of check_product
    monkeypatch.setattr(evaluator, "TUPLE_BUDGET", 5)
    view = parse_view_def(
        f'<v>{{for x in doc("s")/R/A, y in doc("s")/R/B/C{where} '
        "return <e>{y}</e>}</v>"
    )
    stmt = parse_update('for b in doc("s")/R/B where b/K="1" update b/.. { delete B }')
    store = _single_doc_store(
        "<R><A/><A/><B><C>1</C></B><B><K>1</K><C>2</C><C>3</C><C>4</C></B></R>"
    )
    with _own_routes(view, stmt, store) as routes:
        with pytest.raises(TupleBudgetExceeded) as raised:
            check_minimality(routes)
        (edit,) = routes.log
        partials = routes.index.partials[(1, store.get("s").node_id)]
        with pytest.raises(TupleBudgetExceeded) as product:
            evaluator.check_product(partials, "y", len(locate(edit.tree, ("C",))))
    assert str(raised.value) == str(product.value) == (
        "the bindings x, y would enumerate more than 5 tuples "
        "(3 reached, the next partial tuple adds 3)"
    )


def test_the_reader_is_asked_only_about_nodes_of_the_sources(monkeypatch):
    # the copy rule skips an edit parent inside a row it copied: a copy's
    # fresh ids are not the store's, so the reader would read every level
    # still unread only to answer "no parent".  Every question, the copy
    # rule's, the probes' and L1's, is about a node the sources hold
    foreign: list[int] = []

    class Watched(Ancestry):
        def __init__(self, store: DocumentStore) -> None:
            super().__init__(store)
            self.held = {n.node_id for t in store.docs.values() for n in iter_nodes(t)}

        def parent(self, node: XmlTree) -> Optional[XmlTree]:
            if node.node_id not in self.held:
                foreign.append(node.node_id)
            return super().parent(node)

    monkeypatch.setattr(verifier, "Ancestry", Watched)
    verified = skipping = 0
    copy_rows = verifier._copy_rows

    def counted(plan, instance, ancestry, copied, *rest) -> bool:
        # whether the plan has an edit parent inside a row copied already
        nonlocal skipping
        wrappers = instance.tree.children or []
        inside = {
            id(node)
            for i in copied
            for row in wrappers[i].children
            for node in iter_nodes(row)
        }
        skipping += any(id(op.parent) in inside for op in plan if op.edits)
        return copy_rows(plan, instance, ancestry, copied, *rest)

    monkeypatch.setattr(verifier, "_copy_rows", counted)
    for seed in range(5):
        rng = random.Random(seed)
        for _ in range(200):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if isinstance(out, Translated):
                report = verify_translation(
                    case.view, case.update, out.statement, case.store, out.case
                )
                assert report.passed
                verified += 1
    assert (verified, skipping, foreign) == (442, 110, [])


def _full_scan_copies(plan, instance, ancestry, copied) -> set[int]:
    """The wrappers the copy rule copies when it scans with every node of
    each chain, as it did before its row-depth bound: each wrapper not yet
    copied with a row tree on the chain of an edit parent the instance
    does not own."""
    wrappers = instance.tree.children or []
    owned = {id(instance.tree), *map(id, wrappers)}
    for i in copied:
        owned.update(id(n) for row in wrappers[i].children for n in iter_nodes(row))
    reached = {
        node
        for op in plan
        if op.edits and id(op.parent) not in owned
        for node in ancestry.chain(op.parent)
    }
    return {
        i
        for i, wrapper in enumerate(wrappers)
        if i not in copied and not reached.isdisjoint(wrapper.children)
    }


def _against_the_full_scan(monkeypatch) -> list[int]:
    """Make every copy-rule call check that it copies exactly the wrappers
    the full scan names; the list returned counts the calls and those that
    copied."""
    counts, copy_rows = [0, 0], verifier._copy_rows

    def checked(plan, instance, ancestry, copied, depths) -> bool:
        want, before = _full_scan_copies(plan, instance, ancestry, copied), set(copied)
        assert copy_rows(plan, instance, ancestry, copied, depths) == bool(want)
        assert copied - before == want and before <= copied
        counts[0] += 1
        counts[1] += bool(want)
        return bool(want)

    monkeypatch.setattr(verifier, "_copy_rows", checked)
    return counts


def _two_depth_doc(rng: random.Random) -> DocumentStore:
    """Documents for TWO_DEPTH_VIEW: its x/K and x/P rows lie two below the
    root of s, its y/Q rows three below the root of t."""
    def items(tag: str, kid: str) -> str:
        return "".join(
            f"<{tag}><K>k{rng.randrange(3)}</K><{kid}><M><L>{rng.randrange(2)}</L></M>"
            f"</{kid}></{tag}>"
            for _ in range(rng.randint(1, 4))
        )

    store = DocumentStore()
    store.add("s", parse_document(f"<R>{items('A', 'P')}</R>"))
    bs = "".join(f"<B>{items('D', 'Q')}</B>" for _ in range(rng.randint(1, 3)))
    store.add("t", parse_document(f"<S>{bs}</S>"))
    return store


TWO_DEPTH_VIEW = (
    '<v>{for x in doc("s")/R/A, y in doc("t")/S/B/D where x/K=y/K '
    "return <e>{x/K}{x/P}{y/Q}</e>}</v>"
)


def test_the_bounded_copy_rule_copies_what_the_full_scan_copies(monkeypatch):
    # the copy rule keeps only the chain nodes at a row depth; it must copy
    # the very wrappers a scan with the whole chain copies, on fuzz cases,
    # the join-session verifies and a two-document view whose rows lie at
    # two depths, with edit parents at a row (P, T1) and inside one (Q/M,
    # T2)
    counts = _against_the_full_scan(monkeypatch)
    verified = 0
    for seed in range(5):
        rng = random.Random(seed)
        for _ in range(200):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if isinstance(out, Translated):
                report = verify_translation(
                    case.view, case.update, out.statement, case.store, out.case
                )
                assert report.passed
                verified += 1
    assert verified == 442
    view = parse_view_def(QBK_VIEW)
    for text, case in (
        ('r/title="t03" update r/auths { insert <aName>n1</aName> }', Case.T1),
        ('r/title="t03" update r/profs { insert <k>1</k> }', Case.T2),
    ):
        dv = parse_update(f"for r in view(Qbk)/Qbk/use where {text}")
        out = translate(view, dv)
        assert isinstance(out, Translated) and out.case is case
        report = verify_translation(view, dv, out.statement, join_session_store(), case)
        assert report.passed
    assert counts[1] > 100
    view = parse_view_def(TWO_DEPTH_VIEW)
    rng, copying = random.Random(5), {}
    for _ in range(40):
        for text in (
            'where r/K="k1" update r/P { insert <Z>1</Z> }',
            'where r/K="k1" update r/Q/M { insert <Z>1</Z> }',
        ):
            dv = parse_update(f"for r in v/e {text}")
            out = translate(view, dv)
            assert isinstance(out, Translated)
            before = counts[1]
            report = verify_translation(
                view, dv, out.statement, _two_depth_doc(rng), out.case
            )
            assert report.passed
            copying[text] = copying.get(text, 0) + (counts[1] > before)
    # the verifies that copied a row, per depth of the edited rows
    assert list(copying.values()) == [20, 17]


class _ReadRows(list):
    """A wrapper's row list that counts the times it is read while
    ``_ReadRows.on[0]`` is set."""

    on, reads = [False], [0]

    def __iter__(self):
        self.reads[0] += self.on[0]
        return super().__iter__()


@pytest.mark.parametrize(
    "update, reads", [(ROOT_DELETION, 0), (LABEL_DELETION, 240)], ids=["T4", "label"]
)
def test_a_root_deletion_copy_rule_reads_no_wrapper(update, reads, monkeypatch):
    # a T4 verify's only reached node is the document root, above every
    # row (the rows lie two below it), so the copy rule reads no wrapper's
    # rows; the label deletion's edit parents are rows (T), so its source
    # plan tests all 160 wrappers and copies the 80 it reaches, and its view
    # plan's parents lie in those copies
    view, dv = parse_view_def(ITEMS_VIEW), parse_update(update)
    out = translate(view, dv)
    assert isinstance(out, Translated)
    evaluate, copy_rows = verifier.evaluate_view, verifier._copy_rows
    _ReadRows.reads[0] = 0

    def evaluating(*args, **kwargs):
        instance = evaluate(*args, **kwargs)
        for wrapper in instance.tree.children:
            wrapper.children = _ReadRows(wrapper.children)
        return instance

    def copying(*args) -> bool:
        _ReadRows.on[0] = True
        try:
            return copy_rows(*args)
        finally:
            _ReadRows.on[0] = False

    monkeypatch.setattr(verifier, "evaluate_view", evaluating)
    monkeypatch.setattr(verifier, "_copy_rows", copying)
    items = "".join(
        f"<A><C>{1 + i % 2}</C><T><W>w{i}</W><W>v{i}</W></T></A>" for i in range(160)
    )
    store = _single_doc_store(f"<R>{items}</R>")
    assert verify_translation(view, dv, out.statement, store, out.case).passed
    assert _ReadRows.reads == [reads]


def test_no_level_is_first_read_in_route_a_state(monkeypatch):
    # the verifier's reader reads each level at the first question that
    # reaches it, so every such question must come before route A executes
    # (the copy rule's) or after the put-back (L1's): between the two, the
    # probes ask only about levels already read on the sources
    readers, windows = [], []
    monkeypatch.setattr(verifier, "Ancestry", _recorded_ancestry(readers))
    executed = verifier._executed

    @contextlib.contextmanager
    def watched(plan):
        with executed(plan) as out:
            before = len(readers[-1].levels)
            try:
                yield out
            finally:
                windows.append((before, len(readers[-1].levels), len(out[0])))

    monkeypatch.setattr(verifier, "_executed", watched)
    rng = random.Random(8)
    cases = []
    for _ in range(1000):
        case = random_case(rng)
        cases.append((case.view, case.update, case.store))
    for view_text, update_text, below in rng.sample(list(free_space()), 300):
        store = DocumentStore()
        store.add("s", parse_document(free_space_doc(rng, below)))
        cases.append((parse_view_def(view_text), parse_update(update_text), store))
    for view, dv, store in cases:
        out = translate(view, dv)
        if isinstance(out, Translated):
            assert verify_translation(view, dv, out.statement, store, out.case).passed
    assert all(before == after for before, after, _ in windows)
    # deep reads before route A, with edits to probe
    assert sum(before > 2 and edits > 0 for before, _, edits in windows) > 100


# ----------------------------------------------------------------------
# Route A on the sources: the put-back, and the copying route A as reference


def _copying_verify(
    view: ViewDef,
    view_update: UpdateStatement,
    source_update: UpdateStatement,
    store: DocumentStore,
    case: Optional[Case] = None,
) -> VerificationReport:
    """The reference verification: route A planned, applied and evaluated
    on an id-preserving copy of the store, which minimality probes; the
    sources are never edited, and the lemma suite reads them with the view
    evaluated on them afresh, as the directly updated instance stays
    edited, and with both statements planned on them afresh for their
    where clauses' verdicts.  The put-back record is kept as ``_executed``
    keeps it, but the copy's parents keep the lists route A gave them."""
    updated = store.copy()
    plan = plan_update(source_update, updated)
    put_back = {op.parent.node_id: (op.parent, op.parent.children) for op in plan}
    log = execute_plan(plan)
    via_source = evaluate_view(view, updated)
    via_view = evaluate_view(view, store)
    view_plan = plan_update(view_update, via_view)
    execute_plan(view_plan)
    on_copy = _Routes(
        view,
        view_update,
        source_update,
        updated,
        log,
        put_back,
        via_source,
        via_view,
        verifier._ProbeIndex(view, updated, Ancestry(updated)),
        (plan.satisfied, []),  # verdicts on the copy: the lemmas read others
        view_plan.form,
    )
    correct, diff = check_correctness(on_copy)
    minimal, witness = False, None
    lemmas: list[tuple[str, bool]] = []
    if correct:
        minimal, witness = check_minimality(on_copy)
        if case is not None:
            on_sources = evaluate_view(view, store)
            satisfied = (
                plan_update(source_update, store).satisfied,
                plan_update(view_update, on_sources).satisfied,
            )
            lemmas = run_lemma_suite(
                dataclasses.replace(
                    on_copy, store=store, via_view=on_sources, satisfied=satisfied
                ),
                case,
            )
    return VerificationReport(correct, diff, minimal, witness, lemmas)


def _outcome(verify, *args):
    """A verification's report as JSON, or the error it raised."""
    try:
        return verify(*args).to_json()
    except XviewError as exc:
        return type(exc).__name__, str(exc)


def _objects(store: DocumentStore) -> list:
    """Per node of the store, in preorder: the node, its child-list object
    and that list's members."""
    return [
        obj
        for tree in store.docs.values()
        for node in iter_nodes(tree)
        for obj in (node, node.children, *(node.children or ()))
    ]


def _assert_same_objects(before: list, store: DocumentStore) -> None:
    after = _objects(store)
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))


def _matching_reference(view, view_update, source_update, store, case) -> dict:
    before = _objects(store)
    expected = _outcome(_copying_verify, view, view_update, source_update, store, case)
    got = _outcome(verify_translation, view, view_update, source_update, store, case)
    assert got == expected
    _assert_same_objects(before, store)
    return got


def test_reports_match_the_copying_route_a_on_fuzz_cases():
    verified = witnesses = 0
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(25):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if not isinstance(out, Translated):
                continue
            got = _matching_reference(
                case.view, case.update, out.statement, case.store, out.case
            )
            verified += 1
            witnesses += got["witness"] is not None
    assert verified > 200 and witnesses == 0


def test_reports_match_the_copying_route_a_on_free_statements():
    # each free source statement is judged against a root deletion of the
    # wrappers whose L reads "1" or "2", with the lemma suite of T1, so
    # either route's view may change and some statements are correct
    rng = random.Random(23)
    reports = []
    for _ in range(600):
        view_text, update_text, doc = _free_case(rng)
        try:
            view, stmt = parse_view_def(view_text), parse_update(update_text)
        except XviewError:
            continue
        label, value = rng.choice(LABELS), rng.choice("12")
        dv = parse_update(f'for u in v where u/e/{label}="{value}" update u ( delete e )')
        got = _matching_reference(view, dv, stmt, _single_doc_store(doc), Case.T1)
        reports.append(got)
    judged = [r for r in reports if isinstance(r, dict)]
    assert len(judged) > 500
    assert sum(r["witness"] is not None for r in judged) > 100
    assert sum(r["diff"] is not None for r in judged) > 50
    assert sum(not all(r["lemmas"].values()) for r in judged if r["lemmas"]) > 20


# Route B shares the sources' rows until a plan can edit inside them; the
# copying reference copies every row, so each shape below is judged against
# it, with the sources' objects checked afterwards.


def _row_internal_update(rng: random.Random, view: ViewDef) -> UpdateStatement:
    """A view update whose target lies inside a row: under a tree one of
    the view's return expressions shows, or one level further down."""
    shown = [return_last_name(view, ret) for ret in view.returns]
    row = rng.choice(shown)
    below = rng.sample([k for k in LABELS if k != row], rng.randint(0, 1))
    target = "/".join(["r", row, *below])
    label, value = rng.choice(LABELS), rng.choice("12")
    action = rng.choice(
        (
            "{ insert <F>f</F> }",
            f"{{ delete {label} }}",
            f"{{ delete <{label}>{value}</{label}> }}",
        )
    )
    cond = f'r/{rng.choice(shown)}="{rng.choice("12")}"'
    if rng.random() < 0.2:  # paired above the wrapper, at the view root
        where = f'u="{value}"'
        return parse_update(f"for u in v where {where} update u/e/{target[2:]} {action}")
    return parse_update(f"for r in v/e where {cond} update {target} {action}")


def _parents_in_rows(view: ViewDef, stmt: UpdateStatement, store: DocumentStore) -> bool:
    """Whether some parent the statement's edits land under lies inside a
    tree the view shows on ``store``."""
    parents = {op.parent.node_id for op in plan_update(stmt, store) if op.edits}
    rows = evaluate_view(view, store).tuples
    return any(
        n.node_id in parents
        for tup in rows
        for tree in row_trees(view.returns, tup)
        for n in iter_nodes(tree)
    )


def test_reports_match_the_copying_route_b_on_row_internal_view_updates():
    # free source statements judged against view updates that insert or
    # delete inside the rows, so route B must copy the rows it edits
    rng = random.Random(29)
    judged = []
    for _ in range(500):
        view_text, update_text, doc = _free_case(rng)
        try:
            view, stmt = parse_view_def(view_text), parse_update(update_text)
        except XviewError:
            continue
        dv = _row_internal_update(rng, view)
        got = _matching_reference(view, dv, stmt, _single_doc_store(doc), Case.T1)
        if isinstance(got, dict):
            judged.append(got)
    assert len(judged) > 400
    assert sum(r["diff"] is not None for r in judged) > 25
    assert sum(r["witness"] is not None for r in judged) > 50


def test_reports_match_the_copying_route_b_when_edit_parents_lie_in_rows():
    # the free cases with each row showing its whole first binding, so the
    # free statements' edits often land under a node inside a row
    rng = random.Random(31)
    judged = inside = 0
    for _ in range(500):
        view_text, update_text, doc = _free_case(rng)
        view_text = view_text.split(" return ")[0] + " return <e>{x}</e>}</v>"
        try:
            view, stmt = parse_view_def(view_text), parse_update(update_text)
            inside += _parents_in_rows(view, stmt, _single_doc_store(doc))
        except XviewError:
            continue
        if rng.random() < 0.5:
            dv = _row_internal_update(rng, view)
        else:
            label, value = rng.choice(LABELS), rng.choice("12")
            where = f'u/e/{label}="{value}"'
            dv = parse_update(f"for u in v where {where} update u ( delete e )")
        got = _matching_reference(view, dv, stmt, _single_doc_store(doc), Case.T1)
        judged += isinstance(got, dict)
    assert judged > 400 and inside > 30


def _shared_case(rng: random.Random) -> tuple:
    """A view that shows each item's T in one wrapper per B under the item,
    an update inside T, its translation when there is one, and a document
    whose items hold 0-2 Bs."""
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/B return <e>{x/C}{x/T}</e>}</v>'
    )
    action = rng.choice(("{ insert <F>f</F> }", "{ delete W }", "{ delete <W>1</W> }"))
    cond = rng.choice(('r/C="1"', 'r/T/W="1"'))
    dv = parse_update(f"for r in v/e where {cond} update r/T {action}")

    def item() -> str:
        ws = "".join(f"<W>{rng.choice('12')}</W>" for _ in range(rng.randint(0, 2)))
        bs = "<B/>" * rng.randint(0, 2)
        return f"<A><C>{rng.choice('12')}</C>{bs}<T>{ws}</T></A>"

    items = "".join(item() for _ in range(rng.randint(1, 4)))
    out = translate(view, dv)
    statements = [out.statement] if isinstance(out, Translated) else []
    statements.append(
        parse_update(
            f'for x in doc("s")/R/A, y in x/B where x/{cond[2:]} update x/T {action}'
        )
    )
    return view, dv, statements, f"<R>{items}</R>"


def test_reports_match_the_copying_route_b_when_two_wrappers_show_one_subtree():
    # an item with two Bs shows its T in two wrappers; an update inside T
    # edits each wrapper's own copy, two planned operations, not one
    rng = random.Random(37)
    shared = correct = 0
    for _ in range(300):
        view, dv, statements, doc = _shared_case(rng)
        shared += "<B/><B/>" in doc
        for stmt in statements:
            got = _matching_reference(view, dv, stmt, _single_doc_store(doc), Case.T1)
            correct += got["correct"]
    assert shared > 60 and correct > 100


def test_a_condition_paired_at_the_view_root_opens_every_wrapper():
    # the whole view reads "1", so the update edits the T of both wrappers,
    # although only the first wrapper's own string value is "1"
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    dv = parse_update('for u in v where u="1" update u/e/T { insert <F>f</F> }')
    store = _single_doc_store("<R><A><C>1</C><T/></A><A><T/></A></R>")
    for where in ("x=x", 'x/C="1"'):
        stmt = parse_update(
            f'for x in doc("s")/R/A where {where} update x/T {{ insert <F>f</F> }}'
        )
        got = _matching_reference(view, dv, stmt, store, None)
        assert got["correct"] is (where == "x=x")


def test_a_view_update_reaching_a_shared_wrapper_is_planned_again(monkeypatch):
    # the A's T is shown in both its wrappers, and only the first wrapper's
    # B reads "1"; the source update edits nothing, so no row is copied for
    # it.  The view update's plan reaches the shared T: both wrappers' rows
    # are copied, and the view update is planned again over the copies
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/B return <e>{y}{x/T}</e>}</v>'
    )
    dv = parse_update('for r in v/e where r/B="1" update r/T { insert <F>f</F> }')
    stmt = parse_update(
        'for x in doc("s")/R/A where x/C="9" update x/T { insert <F>f</F> }'
    )
    store = _single_doc_store("<R><A><C>1</C><B>1</B><B>2</B><T/></A></R>")
    plans = []
    plan = verifier.plan_update
    monkeypatch.setattr(
        verifier, "plan_update", lambda *args: plans.append(args[0]) or plan(*args)
    )
    got = _matching_reference(view, dv, stmt, store, None)
    assert not got["correct"] and got["diff"]["path"] == "v[0]/e[1]/T"
    assert plans == [stmt, dv, dv]


def _holds_by_sets(atoms, tup) -> bool:
    """The where clause as the set-based test read it: per atom, the string
    values each side locates, searched for the literal or intersected."""

    def values(side) -> set[str]:
        var, names = side
        return {string_value(n) for n in locate(tup[var], names)}

    for atom in atoms:
        lhs = values(atom.lhs)
        if isinstance(atom, PathEqString):
            if atom.value not in lhs:
                return False
        elif lhs.isdisjoint(values(atom.rhs)):
            return False
    return True


def _full_steps(stmt: UpdateStatement, var: str, names: tuple) -> tuple:
    """A variable path of ``stmt`` as names from its root, expanded here
    through the statement's own bindings."""
    sources = {b.var: b.source for b in stmt.bindings}
    while True:
        source = sources[var]
        names = source.steps + names
        if not isinstance(source.root, VarRoot):
            return names
        var = source.root.var


def _shell_lemma3(routes: _Routes) -> bool:
    """The reference: L3 with a wrapper shell built over each of route B's
    tuples' uncopied rows on the sources.  The view update's condition and
    target pair under their common prefix, with the root-deletion
    exception, as README "Data model" states them; the paths are expanded
    and the prefix taken here.  The context nodes at the prefix below the
    wrapper step are located in each shell, and pair in document order
    with the tuple's extensions through the bindings the source update adds
    to the view's."""
    dv = routes.view_update
    (atom,) = dv.conditions
    cond = _full_steps(dv, *atom.lhs)
    target = _full_steps(dv, dv.target.var, dv.target.path)
    common = 0
    while common < min(len(cond), len(target)) and cond[common] == target[common]:
        common += 1
    action = dv.action
    if isinstance(action, DeleteLabel) and target == cond[:1]:
        if cond[1:2] == (action.label,):
            common = 2
    context_atom = PathEqString(("c", cond[common:]), atom.value)
    source = routes.source_update
    added = source.bindings[len(routes.view.bindings) :]
    for tup in routes.via_view.tuples:
        rows = row_trees(routes.view.returns, tup)
        shell = XmlTree(routes.view.wrapper, children=rows)
        contexts = locate(shell, cond[2:common])
        extended = [tup]
        for b in added:
            extended = [
                {**t, b.var: n}
                for t in extended
                for n in locate(t[b.source.root.var], b.source.steps)
            ]
        if len(extended) != len(contexts):
            return False
        for t, context in zip(extended, contexts):
            source_holds = _holds_by_sets(source.conditions, t)
            if source_holds != _holds_by_sets((context_atom,), {"c": context}):
                return False
    return True


def test_lemma3_matches_the_shell_reference():
    # the translated fuzz cases of seeds 0-19, free statements judged
    # against a root deletion as above, and the bound translations of a
    # sample of the free space, each also judged against its view update
    # with the other literal; L3 read on the restored sources
    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(25):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if isinstance(out, Translated):
                cases.append((case.view, case.update, out.statement, case.store))
    rng = random.Random(23)
    for _ in range(600):
        view_text, update_text, doc = _free_case(rng)
        try:
            view, stmt = parse_view_def(view_text), parse_update(update_text)
        except XviewError:
            continue
        label, value = rng.choice(LABELS), rng.choice("12")
        dv = parse_update(
            f'for u in v where u/e/{label}="{value}" update u ( delete e )'
        )
        cases.append((view, dv, stmt, _single_doc_store(doc)))
    rng = random.Random(29)
    for view_text, update_text, below in rng.sample(list(free_space()), 400):
        view, dv = parse_view_def(view_text), parse_update(update_text)
        out = translate(view, dv)
        if isinstance(out, Translated) and len(out.statement.bindings) == 2:
            other = parse_update(update_text.replace('="1"', '="2"'))
            for judged_dv in (dv, other):
                store = _single_doc_store(free_space_doc(rng, below))
                cases.append((view, judged_dv, out.statement, store))
    judged = failed = bound = bound_failed = 0
    for view, dv, stmt, store in cases:
        try:
            routes = _settled_routes(view, dv, stmt, store)
        except XviewError:
            continue
        want = _shell_lemma3(routes)
        assert verifier._lemma3(routes, context_form(dv)) == want
        judged += 1
        failed += not want
        if len(stmt.bindings) > len(view.bindings):
            bound += 1
            bound_failed += not want
    assert judged > 900 and failed > 120
    assert bound > 150 and 40 < bound_failed < bound - 40


def _join_store(rng: random.Random) -> DocumentStore:
    """Books and universities in the shape of the README's join documents,
    with a room, holding k trees, beside the professors of a subject."""

    def some(label: str, values: str, most: int = 2) -> str:
        return "".join(
            f"<{label}>{rng.choice(values.split())}</{label}>"
            for _ in range(rng.randint(0, most))
        )

    books = "".join(
        f"<book><auths>{some('aName', 'John Mary')}</auths>"
        f"<title>{rng.choice(('IS', 'DB', 'AI'))}</title></book>"
        for _ in range(rng.randint(1, 3))
    )
    unis = "".join(
        f"<uni><uName>{rng.choice(('UniSA', 'Swin'))}</uName><subjs>"
        + "".join(
            f"<subj><title>{rng.choice(('IS', 'DB', 'AI'))}</title><profs>"
            f"{some('pName', 'Paul Rose')}"
            + "".join(
                f"<room>{some('k', '1 2', 1)}</room>" for _ in range(rng.randint(0, 2))
            )
            + "</profs></subj>"
            for _ in range(rng.randint(0, 3))
        )
        + "</subjs></uni>"
        for _ in range(rng.randint(1, 2))
    )
    store = DocumentStore()
    store.add("bkInf.xml", parse_document(f"<bkInf>{books}</bkInf>"))
    store.add("subjInf.xml", parse_document(f"<subjInf>{unis}</subjInf>"))
    return store


def test_lemma3_reads_the_plans_verdicts_on_joins_and_bound_statements(monkeypatch):
    # the join view's translations: T1 and T2, whose where clause the
    # source plan splits (x/title="IS" is tested on the books before the
    # subjects extend them), and bound T1, whose added c in z/profs extends
    # each tuple by zero to two nodes (the join is then tested before c
    # extends it); each judged against its view update and against the
    # same update with the other literal.  L3 reads the plans' verdicts and
    # tests no clause itself.  A hand-written statement whose bindings do
    # not extend the view's, and a condition paired at the view root, fall
    # outside the lemmas' premise: the suite reports no lemmas for them.
    view = parse_view_def(QBK_VIEW)
    judged: list[tuple[UpdateStatement, UpdateStatement, bool]] = []
    for cond, target in (
        ('title="IS"', "auths { insert <aName>S</aName> }"),
        ('title="IS"', "auths { delete aName }"),
        ('title="IS"', "profs { delete room }"),
        ('profs/pName="Paul"', "profs/room { insert <k>1</k> }"),
        ('profs/pName="Paul"', "profs/room { delete k }"),
    ):
        dv = parse_update(
            f"for r in view(Qbk)/Qbk/use where r/{cond} update r/{target}"
        )
        out = translate(view, dv)
        assert isinstance(out, Translated)
        other = cond.replace('"IS"', '"DB"').replace('"Paul"', '"Rose"')
        for judged_dv in (dv, parse_update(render_update(dv).replace(cond, other))):
            judged.append((judged_dv, out.statement, True))
    at_root = parse_update(
        'for u in view(Qbk)/Qbk where u="IS" update u/use/auths { delete aName }'
    )
    judged += [
        (parse_update(QBK_DV), parse_update(QBK_DS_PADDED), False),
        (parse_update(QBK_DV), parse_update(QBK_DS_NO_COND), True),
        (at_root, parse_update(QBK_DS_PRINTED), False),
    ]
    rng = random.Random(41)
    read = read_failed = bound_held = unjudged = 0
    for _ in range(40):
        for dv, stmt, premise in judged:
            routes = _settled_routes(view, dv, stmt, _join_store(rng))
            if not premise:
                assert run_lemma_suite(routes, Case.T1) == []
                unjudged += 1
                continue
            want = _shell_lemma3(routes)
            with monkeypatch.context() as m:
                tests = _counting_eval_condition(m)
                assert verifier._lemma3(routes, context_form(dv)) == want
            assert tests == [0]
            read += 1
            read_failed += not want
            bound_held += len(stmt.bindings) > 3 and want
    assert read == 440 and 60 < read_failed < 300 and bound_held > 20
    assert unjudged == 80


def test_lemma3_reads_the_verdicts_of_the_view_update_planned_again(monkeypatch):
    # the A's T is shown in both its wrappers, and the source update edits
    # nothing, so the view update's plan reaches a shared T: both wrappers'
    # rows are copied and the view update is planned again.  L3's context
    # nodes are the copies, and it reads the second plan's verdicts on them
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/B return <e>{y}{x/T}</e>}</v>'
    )
    dv = parse_update('for r in v/e where r/T/C="1" update r/T/D { insert <F>f</F> }')
    stmt = parse_update(
        'for x in doc("s")/R/A, y in x/B, c in x/T where c/C="1" '
        "update c/E { insert <F>f</F> }"
    )
    store = _single_doc_store("<R><A><B>1</B><B>2</B><T><C>1</C><D/></T></A></R>")
    plans = []
    plan = verifier.plan_update
    monkeypatch.setattr(
        verifier, "plan_update", lambda *args: plans.append(args[0]) or plan(*args)
    )
    routes = _settled_routes(view, dv, stmt, store)
    assert plans == [stmt, dv, dv]
    assert _shell_lemma3(routes) and verifier._lemma3(routes, context_form(dv))


def _order_case():
    return (
        parse_view_def(ORDER_VIEW),
        parse_update(ORDER_DV),
        parse_update(ORDER_PADDED),
        _single_doc_store(ORDER_XML),
    )


def _books_case(source_update: str):
    store = DocumentStore()
    store.add("bkInf.xml", parse_document(BKINF_XML))
    store.add("subjInf.xml", parse_document(SUBJINF_XML))
    return parse_view_def(QBK_VIEW), parse_update(QBK_DV), parse_update(source_update), store


def _root_deletion_case(count: int = 8):
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    items = "".join(
        f"<A><C>{1 + i % 2}</C><T><W>w{i}</W></T></A>" for i in range(count)
    )
    return view, dv, out.statement, _single_doc_store(f"<R>{items}</R>")


@pytest.mark.parametrize(
    "build, correct, minimal",
    [
        (_root_deletion_case, True, True),
        (lambda: _books_case(QBK_DS_PRINTED), True, True),
        (lambda: _books_case(QBK_DS_NO_COND), False, False),
        (_order_case, True, False),
    ],
    ids=["T4-precise", "T1-insertion", "not-correct", "deletion-witness"],
)
def test_verification_puts_back_every_node_and_child_list(
    build, correct, minimal, monkeypatch
):
    view, dv, ds, store = build()
    before = _objects(store)
    suite = verifier.run_lemma_suite
    lemmas_read = []

    def on_the_sources(routes, case):  # the lemma suite reads the sources
        _assert_same_objects(before, routes.store)
        lemmas_read.append(case)
        return suite(routes, case)

    monkeypatch.setattr(verifier, "run_lemma_suite", on_the_sources)
    report = verify_translation(view, dv, ds, store, Case.T1)
    assert (report.correct, report.minimal) == (correct, minimal)
    assert lemmas_read == ([Case.T1] if correct else [])
    _assert_same_objects(before, store)


def test_verify_delta_s_puts_back_every_node_and_child_list(tmp_path, monkeypatch):
    paths = {}
    for name, text in {
        "view.xq": ORDER_VIEW,
        "dv.xq": ORDER_DV,
        "ds.xq": ORDER_PADDED,
        "s.xml": ORDER_XML,
    }.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    checked = []
    verify = cli.verify_translation

    def checking(view, dv, ds, store, case):
        before = _objects(store)
        report = verify(view, dv, ds, store, case)
        _assert_same_objects(before, store)
        checked.append(report)
        return report

    monkeypatch.setattr(cli, "verify_translation", checking)
    argv = ["verify", "--view", str(paths["view.xq"]), "--update", str(paths["dv.xq"])]
    argv += ["--doc", f"s={paths['s.xml']}", "--delta-s", str(paths["ds.xq"])]
    assert cli.main(argv) == 5
    (report,) = checked
    assert report.correct and isinstance(report.witness, Deleted)


def test_verification_puts_back_the_sources_when_minimality_raises(monkeypatch):
    view, dv, ds, store = _root_deletion_case()
    before = _objects(store)

    def failing(*_args):
        raise RuntimeError("undo failed")

    monkeypatch.setattr(verifier, "_undo", failing)
    with pytest.raises(RuntimeError, match="undo failed"):
        verify_translation(view, dv, ds, store, Case.T4)
    _assert_same_objects(before, store)
