"""Round-trip correctness, leave-one-edit-out minimality, lemma assertions."""

from __future__ import annotations

import dataclasses
import random

from xview.fuzzgen import gen_t1, gen_t2
from xview.lang import parse_update, parse_view_def
from xview.translator import Case, Rejected, Translated, translate
from xview.updater import Inserted
from xview.verifier import (
    _compute_routes,
    run_lemma_suite,
    tree_diff,
    verify_translation,
)
from xview.xml_model import DocumentStore, locate, parse_document, serialize
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
