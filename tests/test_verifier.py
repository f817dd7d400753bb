"""Round-trip correctness, leave-one-edit-out minimality, lemma assertions."""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import Optional

import pytest

from xview.errors import XviewError
from xview import cli, verifier
from xview.evaluator import ViewInstance, enumerate_bindings, evaluate_view, row_trees
from xview.fuzzgen import gen_t1, gen_t2, random_case
from xview.lang import (
    PathEqString,
    UpdateStatement,
    ViewDef,
    parse_update,
    parse_view_def,
    return_last_name,
)
from xview.translator import Case, Rejected, Translated, translate
from xview.updater import (
    Deleted,
    Edit,
    Inserted,
    abstract_form,
    execute_plan,
    plan_update,
    replay_edits,
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
    DocumentStore,
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

    # L1 reads route A's planned target ids; drop one of the two M parents
    routes = _settled_routes(view, dv, out.statement, store)
    assert len(routes.touched) == 2
    partial = dataclasses.replace(
        routes, touched=routes.touched - {min(routes.touched)}
    )
    assert run_lemma_suite(partial, out.case)[0] == ("L1", False)


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


def _mutated(rng: random.Random, tree: XmlTree) -> XmlTree:
    """A copy of ``tree``, identical or with one mutation at a random node:
    relabel, change a text, insert or delete a child, swap two siblings, or
    turn a text leaf into an element."""
    out = copy_tree(tree)
    node = rng.choice(list(iter_nodes(out)))
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
    rng = random.Random(2024)
    found = 0
    for _ in range(3000):
        a = _random_tree(rng)
        b = _mutated(rng, a)
        for left, right in ((a, b), (b, a)):
            want = _recursive_tree_diff(left, right)
            assert tree_diff(left, right) == want
            found += want is not None
    assert found > 2000  # most mutations show


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

    # back between V and W, the second Z leaves the hidden A hidden
    hidden_t = locate(store.get("s"), ("A", "T"))[0]
    assert not minimal and witness is routes.log[1]
    assert isinstance(witness, Deleted)
    assert witness.parent_id == hidden_t.node_id
    assert witness.node_id == hidden_t.children[3].node_id
    assert witness.tree is hidden_t.children[3]  # the source's own subtree
    assert _leave_one_out_reference(routes, sources) == (False, witness)


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
def _own_routes(view: ViewDef, stmt: UpdateStatement, store: DocumentStore):
    """Routes whose directly updated instance is route A's own view, so every
    translation is correct and every probe is reached.  While the body runs,
    ``store`` is in route A's state, as inside ``_compute_routes``."""
    plan = plan_update(stmt, store)
    restore = verifier._restore_points(plan)
    with verifier._executed(plan) as log:
        via_source = evaluate_view(view, store)
        own = ViewInstance(copy_tree(via_source.tree), via_source.tuples)
        index = verifier._ProbeIndex(view, store, plan, verifier._ancestry(store))
        # no flags: the lemma suite never reads these routes
        yield _Routes(
            view,
            stmt,
            stmt,
            store,
            frozenset(),
            log,
            restore,
            via_source,
            own,
            [],
            index,
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
    # whether or not the update is a correct translation of anything
    rng = random.Random(11)
    probes = changed = 0
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
        probes += len(changes)
        changed += sum(changes)
    assert probes > 600 and changed >= 100


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


def test_minimality_checks_grow_linearly_with_the_document(monkeypatch):
    # a T4 root deletion of half the items: one check per restored item
    # (the index is built with route A's view, before the check), where
    # re-checking every tuple per probe would grow with the square of the
    # document
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    calls = []
    prepare = verifier.condition_test

    def counting_test(*args):
        holds = prepare(*args)

        def counted(tup):
            calls[-1] += 1
            return holds(tup)

        return counted

    for items in (40, 160):
        doc = "".join(
            f"<A><C>{1 + i % 2}</C><T><W>w{i}</W></T></A>" for i in range(items)
        )
        store = _single_doc_store(f"<R>{doc}</R>")
        with _compute_routes(view, dv, out.statement, store) as routes:
            assert len(routes.log) == items // 2
            # count the minimality check's tests only, not the index's
            monkeypatch.setattr(verifier, "condition_test", counting_test)
            calls.append(0)
            assert check_minimality(routes) == (True, None)
            monkeypatch.setattr(verifier, "condition_test", prepare)
    assert 0 < calls[1] <= 5 * calls[0]


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

    record("enumerate_bindings", lambda bindings, _store: bindings[0] == first)
    record("bind_level", lambda binding, *_: binding == first)
    for name in ("execute_plan", "_ProbeIndex", "check_minimality"):
        record(name)
    store = _single_doc_store(f"<R>{doc}</R>")
    assert verify_translation(view, dv, out.statement, store).precise
    window = events[events.index("/execute_plan") : events.index("/check_minimality")]
    assert sum(e in ("enumerate_bindings", "bind_level") for e in window) == 1
    assert "_ProbeIndex" not in window[window.index("check_minimality") :]


def test_an_empty_log_builds_no_probe_only_index_parts(monkeypatch):
    # where no item reads C="1", the translated root deletion deletes
    # nothing: the verification has no edit to probe, so it builds none of
    # the index's probe-only parts.  The ancestor map walks the store only
    # for an edit parent that is not a document root: the root deletion's
    # edits all land under R, the label deletion's under the Ts
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    root_deletion = 'for u in v where u/e/C="1" update u ( delete e )'
    label_deletion = 'for r in v/e where r/C="1" update r/T ( delete W )'
    walked, prepared = [], []
    walk, prepare = verifier.iter_nodes, verifier._ProbeIndex.prepare_probes
    monkeypatch.setattr(verifier, "iter_nodes", lambda t: walked.append(t) or walk(t))
    monkeypatch.setattr(
        verifier._ProbeIndex,
        "prepare_probes",
        lambda index: prepared.append(index) or prepare(index),
    )
    for update, marks, walks, builds in (
        (root_deletion, "22", 0, 0),
        (root_deletion, "12", 0, 1),
        (label_deletion, "12", 1, 1),
    ):
        dv = parse_update(update)
        out = translate(view, dv)
        assert isinstance(out, Translated)
        items = "".join(f"<A><C>{m}</C><T><W>w</W></T></A>" for m in marks * 4)
        store = _single_doc_store(f"<R>{items}</R>")
        walked.clear()
        prepared.clear()
        report = verify_translation(view, dv, out.statement, store, out.case)
        assert report.precise and all(ok for _n, ok in report.lemma_checks)
        assert (len(walked), len(prepared)) == (walks, builds), update


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
    sources are never edited, and the lemma suite reads them."""
    updated = store.copy()
    plan = plan_update(source_update, updated)
    touched = frozenset(op.target.node_id for op in plan)
    restore = verifier._restore_points(plan)
    log = execute_plan(plan)
    via_source = evaluate_view(view, updated)
    via_view = evaluate_view(view, store)
    view_plan = plan_update(view_update, via_view)
    view_holds = verifier._condition_flags(view_update, via_view)
    execute_plan(view_plan)
    on_copy = _Routes(
        view,
        view_update,
        source_update,
        updated,
        touched,
        log,
        restore,
        via_source,
        via_view,
        view_holds,
        verifier._ProbeIndex(view, updated, plan, verifier._ancestry(updated)),
    )
    correct, diff = check_correctness(on_copy)
    minimal, witness = False, None
    lemmas: list[tuple[str, bool]] = []
    if correct:
        minimal, witness = check_minimality(on_copy)
        if case is not None:
            lemmas = run_lemma_suite(dataclasses.replace(on_copy, store=store), case)
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


def _shell_lemma3(routes: _Routes) -> bool:
    """The reference: L3 as it was when it built a wrapper shell over each
    of route B's tuples' uncopied rows on the sources and tested the view
    atom on that shell."""
    abstract = abstract_form(routes.view_update)
    view_atom = PathEqString(("w", abstract.cond_path.steps[2:]), abstract.cond_value)
    source = routes.source_update
    for tup in routes.via_view.tuples:
        rows = row_trees(routes.view.returns, tup)
        shell = XmlTree(routes.view.wrapper, children=rows)
        source_holds = _holds_by_sets(source.conditions, tup)
        if source_holds != _holds_by_sets((view_atom,), {"w": shell}):
            return False
    return True


def test_lemma3_matches_the_shell_reference():
    # the translated fuzz cases of seeds 0-19, and free statements judged
    # against a root deletion as above, L3 read on the restored sources
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
    judged = failed = 0
    for view, dv, stmt, store in cases:
        try:
            routes = _settled_routes(view, dv, stmt, store)
        except XviewError:
            continue
        want = _shell_lemma3(routes)
        assert verifier._lemma3(routes) == want
        judged += 1
        failed += not want
    assert judged > 700 and failed > 50


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


def _root_deletion_case():
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    items = "".join(f"<A><C>{1 + i % 2}</C><T><W>w{i}</W></T></A>" for i in range(8))
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
