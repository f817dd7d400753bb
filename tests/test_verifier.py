"""Round-trip correctness, leave-one-edit-out minimality, lemma assertions."""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from xview.evaluator import evaluate_view
from xview.fuzzgen import gen_t1, gen_t2, random_case
from xview.lang import parse_update, parse_view_def
from xview.translator import Case, Rejected, Translated, translate
from xview.updater import Deleted, Edit, Inserted, replay_edits
from xview.verifier import (
    _compute_routes,
    check_correctness,
    check_minimality,
    run_lemma_suite,
    tree_diff,
    verify_translation,
)
from xview.xml_model import (
    DocumentStore,
    iter_nodes,
    locate,
    parse_document,
    serialize,
    value_equal,
)
from .conftest import QBK_DS_NO_COND, QBK_DS_PADDED, QBK_DS_PRINTED


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


def test_lemma3_judges_the_emitted_where_clause(qbk_view, qbk_dv, qbk_store):
    # the statement lacks the appended title="IS" atom, so on the DB and AI
    # tuples its where clause holds while the view condition does not
    routes = _compute_routes(
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
    routes = _compute_routes(view, dv, out.statement, store)
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


def _leave_one_out_reference(routes) -> tuple[bool, Optional[Edit]]:
    """The plain leave-one-edit-out oracle: for each edit, replay the rest
    of the log on a fresh copy of the store and build the view."""
    log = routes.log
    for dropped in range(len(log)):
        variant = routes.store.copy()
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
            routes = _compute_routes(case.view, case.update, variant, case.store)
            if not check_correctness(routes)[0]:
                continue
            expected = _leave_one_out_reference(routes)
            minimal, witness = check_minimality(routes)
            assert minimal == expected[0]
            assert witness is expected[1]
            checked += 1
            over_updates += not minimal
    assert checked > 150 and over_updates > 20


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
    routes = _compute_routes(view, dv, parse_update(ORDER_PADDED), store)
    assert check_correctness(routes) == (True, None)
    # the log: the hidden A's two Zs, then the shown A's Z
    assert [serialize(e.tree) for e in routes.log] == [
        "<Z>y</Z>",
        "<Z>b</Z>",
        "<Z>x</Z>",
    ]
    state = _store_state(routes.updated)
    minimal, witness = check_minimality(routes)
    assert _store_state(routes.updated) == state

    # back between V and W, the second Z leaves the hidden A hidden
    hidden_t = locate(store.get("s"), ("A", "T"))[0]
    assert not minimal and witness is routes.log[1]
    assert isinstance(witness, Deleted)
    assert witness.parent_id == hidden_t.node_id
    assert witness.node_id == hidden_t.children[3].node_id
    assert _leave_one_out_reference(routes) == (False, witness)


def test_minimal_root_deletion_leaves_route_a_store_unchanged():
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}</e>}</v>')
    store = _single_doc_store(
        "<R><A><C>1</C><T>a</T></A><A><C>2</C><T>b</T></A>"
        "<A><C>1</C><T>c</T></A><A><C>2</C><T>d</T></A></R>"
    )
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T4
    routes = _compute_routes(view, dv, out.statement, store)
    assert len(routes.log) == 2
    state = _store_state(routes.updated)
    assert check_minimality(routes) == (True, None)
    assert _store_state(routes.updated) == state


def test_probe_with_a_row_missing_does_not_match():
    # the inserted W adds a row; undoing it leaves one wrapper short of the
    # directly updated instance, whose first wrapper it still matches
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/T/W return <e>{x/C}</e>}</v>'
    )
    store = _single_doc_store("<R><A><C>1</C><T><W>w</W></T></A></R>")
    dv = parse_update('for u in v where u/e/C="1" update u { insert <e><C>1</C></e> }')
    ds = parse_update('for x in doc("s")/R/A where x/C="1" update x/T { insert <W>n</W> }')
    routes = _compute_routes(view, dv, ds, store)
    assert check_correctness(routes) == (True, None)
    assert check_minimality(routes) == (True, None)
    assert _leave_one_out_reference(routes) == (True, None)
