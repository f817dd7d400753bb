"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact (structural or value equality); the only tolerances
are the wall-clock budgets stated alongside the criteria.
"""

from __future__ import annotations

import random
import time

from xview.cli import main
from xview.evaluator import evaluate_view
from xview.fuzzgen import (
    gen_insert_condition_reject,
    gen_insert_production_reject,
    gen_insert_root_reject,
    gen_section4_reject,
    gen_t1,
    gen_t2,
    gen_t2_reject,
    gen_t3,
    gen_t4,
)
from xview.lang import parse_update, parse_view_def
from xview.translator import Case, ReasonCode, Rejected, Translated, translate
from xview.updater import Deleted, apply_update
from xview.verifier import verify_translation
from xview.xml_model import locate, serialize, string_value
from .conftest import (
    BKINF_XML,
    QBK_DS_NO_COND,
    QBK_DS_PADDED,
    QBK_DS_PRINTED,
    QBK_DV,
    QBK_VIEW,
    SUBJINF_XML,
)
from xview.xml_model import DocumentStore, parse_document


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def _books_store() -> DocumentStore:
    store = DocumentStore()
    store.add("bkInf.xml", parse_document(BKINF_XML))
    store.add("subjInf.xml", parse_document(SUBJINF_XML))
    return store


def test_criterion_1_worked_example_reproduction():
    start = time.monotonic()
    view = parse_view_def(QBK_VIEW)
    out = translate(view, parse_update(QBK_DV))
    ok = (
        isinstance(out, Translated)
        and out.case is Case.T1
        and out.statement == parse_update(QBK_DS_PRINTED)
    )
    elapsed = time.monotonic() - start
    _report(1, "translated statement matches the expected source update",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_end_to_end_semantics():
    start = time.monotonic()
    view = parse_view_def(QBK_VIEW)
    dv = parse_update(QBK_DV)
    store = _books_store()
    out = translate(view, dv)
    report = verify_translation(view, dv, out.statement, store)

    updated = store.copy()
    apply_update(out.statement, updated)
    books = locate(updated.get("bkInf.xml"), ("book",))
    authors = [string_value(locate(b, ("auths",))[0]) for b in books]
    only_first = (
        authors[0] == "JohnMarySusan"
        and all("Susan" not in a for a in authors[1:])
        and serialize(updated.get("subjInf.xml"))
        == serialize(store.get("subjInf.xml"))
    )
    elapsed = time.monotonic() - start
    _report(2, "round trip equality and a single touched source subtree",
            report.correct and report.view_diff is None and only_first
            and elapsed < 1.0,
            f"{elapsed:.3f}s")


def _run_translated(case) -> tuple[bool, str]:
    out = translate(case.view, case.update)
    if not isinstance(out, Translated) or out.case.value != case.expect:
        return False, f"expected {case.expect}, got {out}"
    report = verify_translation(case.view, case.update, out.statement, case.store)
    if not report.correct:
        return False, f"correctness: {report.view_diff}"
    if not report.minimal:
        return False, f"minimality witness: {report.witness}"
    return True, ""


def test_criterion_3_same_variable_suite():
    start = time.monotonic()
    rng = random.Random(30_001)
    failures = []
    for i in range(200):
        ok, detail = _run_translated(gen_t1(rng))
        if not ok:
            failures.append((i, detail))
    elapsed = time.monotonic() - start
    _report(3, "200 seeded same-variable triples verify precisely",
            not failures and elapsed < 30.0,
            f"{elapsed:.2f}s, failures={failures[:3]}")


def test_criterion_4_join_suite():
    rng = random.Random(40_001)
    failures = []
    for i in range(100):
        ok, detail = _run_translated(gen_t2(rng))
        if not ok:
            failures.append((i, detail))
    rejected_wrong = []
    for i in range(50):
        case = gen_t2_reject(rng)
        out = translate(case.view, case.update)
        if not (
            isinstance(out, Rejected)
            and out.reason is ReasonCode.TargetPrefixOfWherePath
        ):
            rejected_wrong.append((i, out))
    _report(4, "join-case suite verifies and join-prefix targets are rejected",
            not failures and not rejected_wrong,
            f"failures={failures[:3]} wrong_rejections={rejected_wrong[:3]}")


def test_criterion_5_deletion_suites():
    rng = random.Random(50_001)
    failures = []
    for i in range(50):
        ok, detail = _run_translated(gen_t3(rng))
        if not ok:
            failures.append(("T3", i, detail))
    for i in range(50):
        case = gen_t4(rng)
        out = translate(case.view, case.update)
        if not isinstance(out, Translated) or out.case is not Case.T4:
            failures.append(("T4", i, f"classified {out}"))
            continue
        ok, detail = _run_translated(case)
        if not ok:
            failures.append(("T4", i, detail))
            continue
        # the binding node itself must vanish from the source, and the
        # re-evaluated view must produce no wrapper tree for it
        before = evaluate_view(case.view, case.store)
        updated = case.store.copy()
        log = apply_update(out.statement, updated)
        removed = [e.node_id for e in log if isinstance(e, Deleted)]
        if any(updated.find_node(node_id) is not None for node_id in removed):
            failures.append(("T4", i, "binding still present in source"))
            continue
        after = evaluate_view(case.view, updated)
        if len(after.tuples) != len(before.tuples) - len(removed):
            failures.append(("T4", i, "wrapper trees do not match removed bindings"))
    _report(5, "wrapper and root deletions verify; bindings are removed",
            not failures, f"failures={failures[:3]}")


def test_criterion_6_rejection_taxonomy():
    rng = random.Random(60_001)
    expected = {
        gen_insert_root_reject: ReasonCode.NoUniqueSourcePlacement,
        gen_insert_production_reject: ReasonCode.ViolatesProduction,
        gen_insert_condition_reject: ReasonCode.NoSpecifiableCondition,
        gen_section4_reject: ReasonCode.CondTargetDifferentVarsNoJoin,
    }
    wrong = []
    for gen, reason in expected.items():
        for i in range(25):
            case = gen(rng)
            out = translate(case.view, case.update)
            if not (isinstance(out, Rejected) and out.reason is reason):
                wrong.append((gen.__name__, i, out))
    _report(6, "insertion scenarios and the no-join shape reject with their codes",
            not wrong, f"wrong={wrong[:3]}")


def test_criterion_7_lemma_suite_and_guard_bypass():
    failures = []
    for seed, gen, count in (
        (30_001, gen_t1, 200),
        (40_001, gen_t2, 100),
        (50_001, gen_t3, 50),
        (50_001, gen_t4, 50),
    ):
        rng = random.Random(seed)
        for i in range(count):
            case = gen(rng)
            out = translate(case.view, case.update)
            if not isinstance(out, Translated):
                failures.append((gen.__name__, i, "not translated"))
                continue
            report = verify_translation(
                case.view, case.update, out.statement, case.store, out.case
            )
            if not report.correct:
                failures.append((gen.__name__, i, report.view_diff))
                continue
            names = [name for name, _ok in report.lemma_checks]
            bad = [name for name, ok in report.lemma_checks if not ok]
            if names != ["L1", "L2", "L3"] or bad:
                failures.append((gen.__name__, i, bad))

    # the translation the structural guard rejects, spelled out, must be
    # incorrect
    from .conftest import D1_XML, EX1_VIEW

    store = DocumentStore()
    store.add("r", parse_document(D1_XML))
    view = parse_view_def(EX1_VIEW)
    dv = parse_update('for w in v/e where w/C/D="1" update w/C { delete <D>1</D> }')
    guarded = translate(view, dv)
    forced = parse_update(
        'for x in doc("r")/r/A, y in x/C, z in x/H '
        'where y/D=z and z="1" and x/C/D="1" update x/C { delete <D>1</D> }'
    )
    report = verify_translation(view, dv, forced, store)
    bypass_shows_failure = (
        isinstance(guarded, Rejected)
        and guarded.reason is ReasonCode.TargetPrefixOfWherePath
        and not report.correct
        and report.view_diff is not None
    )
    _report(7, "lemma assertions hold on every translated case; guard bypass fails",
            not failures and bypass_shows_failure, f"failures={failures[:3]}")


def test_criterion_8_oracle_sensitivity():
    view = parse_view_def(QBK_VIEW)
    dv = parse_update(QBK_DV)

    store = _books_store()
    padded = parse_update(QBK_DS_PADDED)
    report = verify_translation(view, dv, padded, store)
    witness = report.witness
    books = locate(store.get("bkInf.xml"), ("book",))
    unrelated_auths = locate(books[3], ("auths",))[0]
    padded_ok = (
        report.correct
        and not report.minimal
        and witness is not None
        and witness.parent_id == unrelated_auths.node_id
    )

    missing = parse_update(QBK_DS_NO_COND)
    report = verify_translation(view, dv, missing, _books_store())
    missing_ok = not report.correct and report.view_diff is not None
    _report(8, "over-updates yield the exact witness; dropped conditions yield a diff",
            padded_ok and missing_ok)


def test_criterion_9_determinism(capsys):
    view = parse_view_def(QBK_VIEW)
    store = _books_store()
    first = serialize(evaluate_view(view, store).tree)
    second = serialize(evaluate_view(view, store).tree)

    assert main(["fuzz", "--seed", "7", "--count", "200"]) == 0
    run_one = capsys.readouterr().out
    assert main(["fuzz", "--seed", "7", "--count", "200"]) == 0
    run_two = capsys.readouterr().out
    with capsys.disabled():
        _report(9, "evaluation and fuzzing are byte-stable for fixed inputs",
                first == second and run_one == run_two)
