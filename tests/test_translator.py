"""Path mapping, case classification, and update rewriting."""

from __future__ import annotations

import collections
import random
import re
import string

import pytest

from xview.errors import LevelMismatch
from xview.fuzzgen import _POOL, DOC, GENERATORS, random_case
from xview.lang import (
    KEYWORDS,
    PathEqString,
    UpdateTarget,
    parse_update,
    parse_view_def,
    render_update,
)
from xview.translator import (
    Case,
    ReasonCode,
    Rejected,
    Translated,
    translate,
)
from xview.updater import apply_update
from xview.verifier import verify_translation
from xview.xml_model import (
    DocumentStore,
    XmlTree,
    copy_tree,
    iter_nodes,
    parse_document,
    serialize,
)
from .conftest import (
    EX1_DISJOINT_VIEW,
    EX1_VIEW,
    QBK_DS_PRINTED,
    QBK_DV,
    QBK_VIEW,
    free_space,
    free_space_doc,
)


def _outcome(view_text: str, update_text: str):
    return translate(parse_view_def(view_text), parse_update(update_text))


def test_translate_maps_the_books_paths_to_x():
    # title and auths both map to the return expressions over x, with no
    # remainder, so the condition is appended on x itself
    out = _outcome(QBK_VIEW, QBK_DV)
    assert isinstance(out, Translated)
    assert out.statement.conditions[-1] == PathEqString(("x", ("title",)), "IS")
    assert out.statement.target == UpdateTarget("x", ("auths",))


def test_translate_maps_paths_with_a_remainder():
    # r/G/P and r/G/K split as the pivot G of {y/F/G} and remainders P and K;
    # their common prefix v/e/G reaches into the returned subtree, so the
    # nodes at y/F/G are bound and condition and target pair under each
    out = _outcome(
        EX1_DISJOINT_VIEW,
        'for r in v/e where r/G/P="1" update r/G/K { insert <Z>z</Z> }',
    )
    assert isinstance(out, Translated) and out.case is Case.T1
    assert out.statement == parse_update(
        'for x in doc("r")/r/A, y in x/C, z in x/H, c in y/F/G '
        'where y/D=z and z="1" and c/P="1" update c/K { insert <Z>z</Z> }'
    )
    # a bare {x} returns the binding itself: the prefix v/e/A is x, and the
    # remainders B and C stay on x
    out = _outcome(
        '<v>{for x in doc("s")/R/A return <e>{x}</e>}</v>',
        'for r in v/e where r/A/B="1" update r/A/C { insert <D>d</D> }',
    )
    assert isinstance(out, Translated) and out.case is Case.T1
    assert out.statement == parse_update(
        'for x in doc("s")/R/A where x/B="1" update x/C { insert <D>d</D> }'
    )


def test_translate_rejects_an_unknown_name_as_unmappable():
    out = _outcome(
        QBK_VIEW, 'for r in Qbk/use where r/nope="1" update r/auths { delete x }'
    )
    assert out == Rejected(
        ReasonCode.UnmappableName, "condition name 'nope' matches no return expression"
    )


def test_classify_books_update_is_t1():
    out = _outcome(QBK_VIEW, QBK_DV)
    assert isinstance(out, Translated) and out.case is Case.T1


def test_classify_join_case_is_t2():
    # condition maps to the bare-binding side of the join, target to the
    # other join variable's subtree
    out = _outcome(
        EX1_DISJOINT_VIEW, 'for r in v/e where r/H="1" update r/G { delete P }'
    )
    assert isinstance(out, Translated) and out.case is Case.T2


OVERLAP_VIEW = '<v>{for x in doc("s")/R/A return <e>{x/C}{x/T}{x/T/U}</e>}</v>'
OVERLAP_DV = 'for r in v/e where r/C="1" update r/T { insert <U>new</U> }'


def test_overlapping_exposure_rejected():
    # the target T is also exposed below {x/T/U}; in EX1_VIEW the G trees
    # are also exposed inside {x/C}; the T3 deletion removes T trees that
    # {x/M/T/U} exposes as well
    for view_text, update_text in (
        (OVERLAP_VIEW, OVERLAP_DV),
        (EX1_VIEW, 'for r in v/e where r/H="1" update r/G { delete P }'),
        (
            '<v>{for x in doc("s")/R/A return <e>{x/C}{x/M/T}{x/M/T/U}</e>}</v>',
            'for w in v/e where w/C="1" update w { delete T }',
        ),
    ):
        out = _outcome(view_text, update_text)
        assert isinstance(out, Rejected)
        assert out.reason is ReasonCode.OverlappingExposure

    # the T1 statement the guard turns away: the new U surfaces twice
    view = parse_view_def(OVERLAP_VIEW)
    store = DocumentStore()
    store.add("s", parse_document("<R><A><C>1</C><T><U>u</U></T></A></R>"))
    unguarded = parse_update(
        'for x in doc("s")/R/A where x/C="1" update x/T { insert <U>new</U> }'
    )
    report = verify_translation(view, parse_update(OVERLAP_DV), unguarded, store)
    assert not report.correct and report.view_diff is not None


def test_classify_target_prefix_rejected():
    out = _outcome(EX1_VIEW, 'for r in v/e where r/H="1" update r/C { delete P }')
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.TargetPrefixOfWherePath
    out2 = _outcome(EX1_VIEW, 'for r in v/e where r/C/D="1" update r/H { delete P }')
    assert isinstance(out2, Rejected)
    assert out2.reason is ReasonCode.TargetPrefixOfWherePath


def test_guard_rejects_target_inside_a_compared_tree():
    # inserting below D changes D's string value to "12", so the view's own
    # condition drops the row; the T1 translation is incorrect
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A where x/C/D="1" return <e>{x/B}{x/C}</e>}</v>'
    )
    dv = parse_update('for r in v/e where r/B="b" update r/C/D/E { insert <G>2</G> }')
    out = translate(view, dv)
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.TargetPrefixOfWherePath

    store = DocumentStore()
    store.add("s", parse_document("<R><A><B>b</B><C><D><E><F>1</F></E></D></C></A></R>"))
    unguarded = parse_update(
        'for x in doc("s")/R/A where x/C/D="1" and x/B="b" '
        "update x/C/D/E { insert <G>2</G> }"
    )
    report = verify_translation(view, dv, unguarded, store)
    assert not report.correct and report.view_diff is not None


def test_guard_checks_the_appended_condition():
    # the appended condition x/C="1" holds for the A as a whole, so the
    # unguarded statement inserts into the second C's D as well
    view = parse_view_def('<v>{for x in doc("s")/R/A return <e>{x/B}{x/C}</e>}</v>')
    dv = parse_update('for r in v/e where r/C="1" update r/C/D { insert <G>2</G> }')
    out = translate(view, dv)
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.TargetPrefixOfWherePath

    store = DocumentStore()
    store.add(
        "s",
        parse_document(
            "<R><A><B>b</B><C><D><F>1</F></D></C><C><D><F>2</F></D></C></A></R>"
        ),
    )
    unguarded = parse_update(
        'for x in doc("s")/R/A where x/C="1" update x/C/D { insert <G>2</G> }'
    )
    report = verify_translation(view, dv, unguarded, store)
    assert not report.correct and report.view_diff is not None


def test_classify_no_join_rejected():
    out = _outcome(EX1_VIEW, 'for r in v/e where r/H="1" update r/B { insert <Q>q</Q> }')
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.CondTargetDifferentVarsNoJoin


SINGLE_VAR_VIEW = '<v>{for x1 in doc("d")/R/A return <e>{x1/B}{x1/C}</e>}</v>'
BARE_BINDING_VIEW = '<q>{for x in doc("d")/R/A/C return <E>{x}</E>}</q>'
MULTI_VAR_VIEW = (
    '<v>{for x in doc("d")/R/A, y in x/C return <e>{x/B}{y/F}</e>}</v>'
)


def test_insert_at_root_ambiguous_placement():
    out = _outcome(
        BARE_BINDING_VIEW,
        'for u in q where u/E/C/W="1" update u { insert <E><C><W>2</W></C></E> }',
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.NoUniqueSourcePlacement


def test_insert_at_wrapper_violates_production():
    out = _outcome(
        BARE_BINDING_VIEW,
        'for w in q/E where w/C/W="1" update w { insert <C><W>2</W></C> }',
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.ViolatesProduction


def test_insert_at_wrapper_no_specifiable_condition():
    out = _outcome(
        SINGLE_VAR_VIEW, 'for w in v/e where w/B="1" update w { insert <C>9</C> }'
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.NoSpecifiableCondition


def test_insert_unknown_label_at_wrapper():
    out = _outcome(
        SINGLE_VAR_VIEW, 'for w in v/e where w/B="1" update w { insert <zz>9</zz> }'
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.InsertionAtWrapperOrRoot


def test_root_deletion_needs_single_return_variable():
    out = _outcome(
        MULTI_VAR_VIEW, 'for u in v where u/e/B="1" update u ( delete e )'
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.MultiVariableReturnRootDeletion


def test_wrapper_delete_tree_rejected():
    out = _outcome(
        SINGLE_VAR_VIEW,
        'for w in v/e where w/B="1" update w { delete <C>1</C> }',
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.NoUniqueSourcePlacement


def test_root_deletion_of_non_wrapper_label_rejected():
    out = _outcome(
        SINGLE_VAR_VIEW, 'for u in v where u/e/B="1" update u ( delete B )'
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.NoUniqueSourcePlacement


def test_wrapper_deletion_of_bare_binding_label_rejected():
    # removing the lone binding copy would leave wrapper trees that
    # evaluation can never produce
    out = _outcome(
        BARE_BINDING_VIEW, 'for w in q/E where w/C/W="1" update w ( delete C )'
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.ViolatesProduction


def test_translate_books_matches_expected_statement(qbk_view, qbk_dv):
    out = translate(qbk_view, qbk_dv)
    assert isinstance(out, Translated) and out.case is Case.T1
    assert out.statement == parse_update(QBK_DS_PRINTED)


def test_translate_t3_schema():
    out = _outcome(
        SINGLE_VAR_VIEW, 'for w in v/e where w/B="1" update w ( delete C )'
    )
    assert isinstance(out, Translated) and out.case is Case.T3
    expected = parse_update(
        'for x1 in doc("d")/R/A where x1/B="1" update x1/C/.. { delete C }'
    )
    assert out.statement == expected


def test_translate_t4_schema():
    out = _outcome(SINGLE_VAR_VIEW, 'for u in v where u/e/B="1" update u ( delete e )')
    assert isinstance(out, Translated) and out.case is Case.T4
    expected = parse_update(
        'for x1 in doc("d")/R/A where x1/B="1" update x1/.. { delete A }'
    )
    assert out.statement == expected


def test_translate_keeps_view_clauses_and_appends_condition():
    rng = random.Random(11)
    for _ in range(60):
        case = random_case(rng)
        out = translate(case.view, case.update)
        if not isinstance(out, Translated):
            continue
        assert out.statement.bindings == case.view.bindings
        assert out.statement.conditions[:-1] == case.view.conditions
        appended = out.statement.conditions[-1]
        assert isinstance(appended, PathEqString)
        assert appended.value == case.update.conditions[0].value


def test_translate_requires_view_level(qbk_view):
    with pytest.raises(LevelMismatch):
        translate(qbk_view, parse_update(QBK_DS_PRINTED))


def test_translated_statement_renders_and_reparses():
    rng = random.Random(21)
    for _ in range(60):
        case = random_case(rng)
        out = translate(case.view, case.update)
        if isinstance(out, Translated):
            assert parse_update(render_update(out.statement)) == out.statement


def test_classify_is_total_over_generators():
    rng = random.Random(31)
    for gen in GENERATORS:
        for _ in range(10):
            case = gen(rng)
            out = translate(case.view, case.update)
            assert isinstance(out, (Translated, Rejected))


# The T1 statement the translator would emit for the update below if it
# skipped the prefix guard.
UNGUARDED_T1 = (
    'for x in doc("r")/r/A, y in x/C, z in x/H '
    'where y/D=z and z="1" and x/C/D="1" update x/C { delete <D>1</D> }'
)


def test_guard_bypass_produces_incorrect_translation(d1_store, ex1_view):
    # deleting below the target would invalidate the join condition the
    # where clause re-checks on evaluation; the unguarded translation
    # breaks the round trip
    dv = parse_update('for w in v/e where w/C/D="1" update w/C { delete <D>1</D> }')
    guarded = translate(ex1_view, dv)
    assert isinstance(guarded, Rejected)
    assert guarded.reason is ReasonCode.TargetPrefixOfWherePath

    forced = parse_update(UNGUARDED_T1)
    report = verify_translation(ex1_view, dv, forced, d1_store)
    assert not report.correct and report.view_diff is not None


def _store(xml: str) -> DocumentStore:
    store = DocumentStore()
    store.add("s", parse_document(xml))
    return store


# (view, source, view update, reason, the unguarded statement)
BINDING_REPROS = {
    "t4_self_join": (
        '<v>{for x in doc("s")/R/A, y in doc("s")/R/A return <e>{y}</e>}</v>',
        "<R><A><C>2</C></A><A><B>1</B></A></R>",
        'for u in v where u/e/A="1" update u ( delete e )',
        ReasonCode.BindingPathAffected,
        'for x in doc("s")/R/A, y in doc("s")/R/A where y="1" update y/.. { delete A }',
    ),
    "t4_where_path_through_deleted_binding": (
        '<v>{for x in doc("s")/R/A, y in x/B where x/B/D="1" return <e>{y}</e>}</v>',
        "<R><A><B><D>1</D></B><B><D>2</D></B></A></R>",
        'for u in v where u/e/B/D="1" update u ( delete e )',
        ReasonCode.TargetPrefixOfWherePath,
        'for x in doc("s")/R/A, y in x/B where x/B/D="1" and y/D="1" '
        "update y/.. { delete B }",
    ),
    "t4_where_path_above_deleted_binding": (
        '<v>{for x in doc("s")/R/A, y in x/B where x="12" return <e>{y}</e>}</v>',
        "<R><A><B>1</B><B>2</B></A></R>",
        'for u in v where u/e/B="1" update u ( delete e )',
        ReasonCode.TargetPrefixOfWherePath,
        'for x in doc("s")/R/A, y in x/B where x="12" and y="1" '
        "update y/.. { delete B }",
    ),
    "t3_binding_inside_deleted_subtree": (
        '<v>{for x in doc("s")/R/A, y in x/T return <e>{x/C}{x/T}</e>}</v>',
        "<R><A><C>1</C><T><W>w</W></T></A></R>",
        'for w in v/e where w/C="1" update w { delete T }',
        ReasonCode.BindingPathAffected,
        'for x in doc("s")/R/A, y in x/T where x/C="1" update x/T/.. { delete T }',
    ),
    "t1_delete_below_target": (
        '<v>{for x in doc("s")/R/A, y in x/T/W return <e>{x/C}{x/T}</e>}</v>',
        "<R><A><C>1</C><T><W>w</W><W>v</W></T></A></R>",
        'for r in v/e where r/C="1" update r/T { delete W }',
        ReasonCode.BindingPathAffected,
        'for x in doc("s")/R/A, y in x/T/W where x/C="1" update x/T { delete W }',
    ),
    "t1_insert_below_target": (
        '<v>{for x in doc("s")/R/A, y in x/T/W return <e>{x/C}{x/T}</e>}</v>',
        "<R><A><C>1</C><T><W>w</W><W>v</W></T></A></R>",
        'for r in v/e where r/C="1" update r/T { insert <W>n</W> }',
        ReasonCode.BindingPathAffected,
        'for x in doc("s")/R/A, y in x/T/W where x/C="1" '
        "update x/T { insert <W>n</W> }",
    ),
}


@pytest.mark.parametrize("name", sorted(BINDING_REPROS))
def test_update_changing_a_binding_range_rejected(name):
    # each update adds or removes trees that a binding ranges over, so rows
    # vanish or multiply on re-evaluation; the unguarded statement shows it
    view_text, xml, update_text, reason, unguarded = BINDING_REPROS[name]
    view, dv = parse_view_def(view_text), parse_update(update_text)
    out = translate(view, dv)
    assert isinstance(out, Rejected) and out.reason is reason
    report = verify_translation(view, dv, parse_update(unguarded), _store(xml))
    assert not report.correct and report.view_diff is not None


# (view, source, view update, case)
BINDING_CONTROLS = {
    "t4_self_join_on_a_disjoint_path": (
        '<v>{for x in doc("s")/R/Z, y in doc("s")/R/A return <e>{y}</e>}</v>',
        "<R><Z>z</Z><A><C>2</C></A><A><B>1</B></A></R>",
        'for u in v where u/e/A="1" update u ( delete e )',
        Case.T4,
    ),
    "t4_where_path_beside_deleted_binding": (
        '<v>{for x in doc("s")/R/A, y in x/B where x/C="2" return <e>{y}</e>}</v>',
        "<R><A><C>2</C><B><D>1</D></B><B><D>2</D></B></A></R>",
        'for u in v where u/e/B/D="1" update u ( delete e )',
        Case.T4,
    ),
    "t1_target_equal_to_a_binding_path": (
        '<v>{for x in doc("s")/R/A, y in x/T return <e>{x/C}{x/T}</e>}</v>',
        "<R><A><C>1</C><T><W>w</W></T></A></R>",
        'for r in v/e where r/C="1" update r/T { insert <W>n</W> }',
        Case.T1,
    ),
}


@pytest.mark.parametrize("name", sorted(BINDING_CONTROLS))
def test_update_beside_a_binding_range_translates_precisely(name):
    view_text, xml, update_text, case = BINDING_CONTROLS[name]
    view, dv = parse_view_def(view_text), parse_update(update_text)
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is case
    report = verify_translation(view, dv, out.statement, _store(xml), out.case)
    assert report.precise
    assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]


def test_binding_guard_reads_the_action_label():
    # y ranges over the W children of T: an update under T that adds or
    # removes V children leaves y's rows alone, one on W children does not
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in x/T/W return <e>{x/C}{x/T}</e>}</v>'
    )
    xml = "<R><A><C>1</C><T><W>w</W><V>v</V></T></A></R>"
    dv = parse_update('for r in v/e where r/C="1" update r/T { delete V }')
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T1
    report = verify_translation(view, dv, out.statement, _store(xml), out.case)
    assert report.precise
    assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]

    for action in ("insert <W>n</W>", "delete W"):
        dv = parse_update(f'for r in v/e where r/C="1" update r/T {{ {action} }}')
        out = translate(view, dv)
        assert isinstance(out, Rejected)
        assert out.reason is ReasonCode.BindingPathAffected
        assert "R/A/T/W" in out.detail


V1 = '<v>{for x in doc("s")/R/A return <e>{x/B}{x/C}</e>}</v>'
V2 = '<v>{for x in doc("s")/R/A, y in x/C return <e>{x/B}{y/D}</e>}</v>'


@pytest.mark.parametrize(
    "view_text, update_text, reason, detail",
    [
        (
            V1,
            'for r in w/e where r/B="1" update r/C { delete D }',
            ReasonCode.UnmappableName,
            "condition path does not start at the view root 'v'",
        ),
        (
            V1,
            'for r in v/f where r/B="1" update r/C { delete D }',
            ReasonCode.UnmappableName,
            "condition path v/f/B does not descend through the wrapper 'e'",
        ),
        (
            V1,
            'for u in v where u/e/B="1" update u { insert <Z>1</Z> }',
            ReasonCode.InsertionAtWrapperOrRoot,
            "inserting 'Z' at the view root does not match the view structure",
        ),
        (
            V1,
            'for r in v/e where r="1" update r/C { delete D }',
            ReasonCode.UnmappableName,
            "the condition path must reach into a returned subtree",
        ),
        (
            V2,
            'for r in v/e where r/B="1" update r { delete D }',
            ReasonCode.MultiVariableReturnRootDeletion,
            "wrapper-level deletion needs a single-variable return clause",
        ),
        (
            V1,
            'for r in v/e where r/B="1" update r { delete Z }',
            ReasonCode.UnmappableName,
            "deleted label 'Z' matches no return expression",
        ),
    ],
    ids=[
        "foreign-view-root",
        "foreign-wrapper",
        "insert-at-root",
        "condition-on-wrapper",
        "wrapper-deletion-two-variables",
        "deleted-label-unreturned",
    ],
)
def test_rarely_generated_rejections(view_text, update_text, reason, detail):
    out = _outcome(view_text, update_text)
    assert isinstance(out, Rejected)
    assert (out.reason, out.detail) == (reason, detail)


@pytest.mark.parametrize(
    "view_text, update_text, reason",
    [
        # trips the where-clause check and the missing join
        (
            '<v>{for x in doc("s")/R/A, y in doc("s")/R/Z where x/C=x/C/B '
            "return <e>{x/C}{y/D/B}</e>}</v>",
            'for r in v/e where r/B/E="1" update r/C { insert <F>f</F> }',
            ReasonCode.TargetPrefixOfWherePath,
        ),
        # trips the missing join and the overlap check
        (
            '<v>{for x in doc("s")/R/A, y in x/B '
            "return <e>{x/D}{y/C}{x/D/B}</e>}</v>",
            'for r in v/e where r/C="2" update r/B { insert <F>f</F> }',
            ReasonCode.CondTargetDifferentVarsNoJoin,
        ),
    ],
)
def test_reason_code_precedence(view_text, update_text, reason):
    out = _outcome(view_text, update_text)
    assert isinstance(out, Rejected) and out.reason is reason


# ----------------------------------------------------------------------
# Condition and target pair under their common prefix

NESTED_VIEW = '<v>{for x in doc("s")/R/A return <e>{x/B}</e>}</v>'
NESTED_DV = 'for r in v/e where r/B/C="1" update r/B/D { insert <F>f</F> }'


def test_a_prefix_inside_the_returned_subtree_binds_its_nodes():
    # the prefix v/e/B pairs C and D under each B on its own; appending
    # x/B/C="1" instead inserted into every B/D of an A with any matching B
    view, dv = parse_view_def(NESTED_VIEW), parse_update(NESTED_DV)
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T1
    assert render_update(out.statement) == (
        'for x in doc("s")/R/A, c in x/B\n'
        'where c/C="1"\n'
        "update c/D { insert <F>f</F> }"
    )
    store = DocumentStore()
    store.add("s", parse_document("<R><A><B><D/></B><B><C>1</C></B></A></R>"))
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.passed
    assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]


def test_the_added_binding_takes_a_name_the_view_does_not_use():
    view = parse_view_def(
        '<v>{for c in doc("s")/R/A, c1 in c/E return <e>{c/B}</e>}</v>'
    )
    dv = parse_update(NESTED_DV)
    out = translate(view, dv)
    assert isinstance(out, Translated)
    assert out.statement == parse_update(
        'for c in doc("s")/R/A, c1 in c/E, c2 in c/B '
        'where c2/C="1" update c2/D { insert <F>f</F> }'
    )
    store = DocumentStore()
    store.add(
        "s",
        parse_document(
            "<R><A><E/><E/><B><D/></B><B><C>1</C><D/></B></A><A><B><C>1</C></B></A></R>"
        ),
    )
    assert verify_translation(view, dv, out.statement, store, out.case).passed


@pytest.fixture(scope="module")
def free_space_outcomes():
    """Each free-space pair, parsed, with its label paths and its outcome."""
    outcomes = []
    for view_text, update_text, below in free_space():
        view, dv = parse_view_def(view_text), parse_update(update_text)
        outcomes.append((view, dv, below, translate(view, dv)))
    return outcomes


def test_free_space_rejections_and_bound_translations(free_space_outcomes):
    outcomes = free_space_outcomes
    reasons = collections.Counter(
        out.reason for *_, out in outcomes if isinstance(out, Rejected)
    )
    assert reasons == {ReasonCode.TargetPrefixOfWherePath: 1737}
    translated = [out for *_, out in outcomes if isinstance(out, Translated)]
    bound = [out for out in translated if len(out.statement.bindings) == 2]
    assert len(translated) == 1188 and len(bound) == 702
    for out in bound:
        assert out.case is Case.T1
        assert parse_update(render_update(out.statement)) == out.statement


def test_free_space_translations_are_precise(free_space_outcomes):
    # a fixed sample of the translated pairs, each verified on small
    # documents along its own paths
    translated = [c for c in free_space_outcomes if isinstance(c[3], Translated)]
    rng = random.Random(5)
    failing = []
    for view, dv, below, out in rng.sample(translated, 150):
        for _ in range(20):
            store = DocumentStore()
            store.add("s", parse_document(free_space_doc(rng, below)))
            report = verify_translation(view, dv, out.statement, store, out.case)
            if not report.passed:
                failing.append((render_update(dv), serialize(store.get("s"))))
                break
    assert failing == []


def test_a_source_path_that_would_repeat_a_name_is_rejected():
    # the prefix v/e/C/D would bind x/D/C/D, a path no statement can write
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A return <e>{x/D/C}{x/T}</e>}</v>'
    )
    out = translate(
        view,
        parse_update(
            'for r in v/e where r/C/D/B="1" update r/C/D/E { insert <F>f</F> }'
        ),
    )
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.SourcePathRepeatsName
    assert out.detail == (
        "the source path x/D/C/D repeats a name, so no update statement can "
        "write it"
    )
    # paired at the wrapper, the condition would be appended as x/D/C/D="1"
    appended = 'for r in v/e where r/C/D="1" update r/T { insert <F>f</F> }'
    out = translate(view, parse_update(appended))
    assert isinstance(out, Rejected)
    assert out.reason is ReasonCode.SourcePathRepeatsName
    assert "x/D/C/D" in out.detail


def test_every_translation_parses_back(free_space_outcomes):
    # what translate emits, xview apply must read: every translated fuzz
    # case of seeds 0-19 and every translated pair of the free space
    translated = [out for *_, out in free_space_outcomes if isinstance(out, Translated)]
    fuzzed = 0
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(200):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if isinstance(out, Translated):
                translated.append(out)
                fuzzed += 1
    assert fuzzed == 1813 and len(translated) == 1813 + 1188
    for out in translated:
        assert parse_update(render_update(out.statement)) == out.statement


def test_every_translation_meets_the_lemma_premise(free_space_outcomes):
    # the lemma suite runs only on statements that extend the view's
    # for-clause, delete no binding but a view variable, and pair inside a
    # wrapper; every translated fuzz case of seeds 0-19 and every translated
    # pair of the free space meets that, so each is judged on L1-L3
    rng = random.Random(13)
    verified = []
    for view, dv, below, out in free_space_outcomes:
        if isinstance(out, Translated):
            store = DocumentStore()
            store.add("s", parse_document(free_space_doc(rng, below)))
            report = verify_translation(view, dv, out.statement, store, out.case)
            verified.append(report)
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(200):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if isinstance(out, Translated):
                verified.append(
                    verify_translation(
                        case.view, case.update, out.statement, case.store, out.case
                    )
                )
    assert len(verified) == 1188 + 1813
    for report in verified:
        assert report.correct
        assert [name for name, _ok in report.lemma_checks] == ["L1", "L2", "L3"]


# ----------------------------------------------------------------------
# Renaming: variables and labels are names only, so renaming them changes
# no outcome.  This guards every place that looks a name up: the planner,
# the translator's fresh variables, the context form's own "c", and the
# lexer's doc( and view( calls beside a bare doc or view.

# a string literal, kept whole; or a name that is no call of doc( or view(
# and no text of a payload element (a name right after ">")
_NAME = re.compile(r'"[^"]*"|(?<![>\w])[A-Za-z_]\w*(?!\w)(?!\()')


def _rename(text: str, names: dict[str, str]) -> str:
    return _NAME.sub(lambda m: names.get(m.group(), m.group()), text)


def _relabel(tree: XmlTree, labels: dict[str, str]) -> XmlTree:
    out = copy_tree(tree)
    for node in iter_nodes(out):
        node.label = labels.get(node.label, node.label)
    return out


def _judged(view_text: str, update_text: str, store: DocumentStore, back=None):
    """What a renaming must keep: the case or reason code, and for a
    translation its report's verdict and lemmas and the edit log of its
    statement applied to a copy of ``store``, each tree with its labels
    mapped by ``back``."""
    view, dv = parse_view_def(view_text), parse_update(update_text)
    out = translate(view, dv)
    if isinstance(out, Rejected):
        return out.reason
    store = store.copy()
    report = verify_translation(view, dv, out.statement, store, out.case).to_json()
    log = apply_update(out.statement, store)
    trees = [serialize(_relabel(edit.tree, back or {})) for edit in log]
    return out.case, report["correct"], report["minimal"], report["lemmas"], trees


def _renaming_cases():
    """The cases of fuzz seeds 0 and 1 x 200, then 300 pairs of the free
    space, each on one document: texts, store, variables and labels."""
    cases = []
    for seed in (0, 1):
        rng = random.Random(seed)
        for _ in range(200):
            case = random_case(rng)
            cases.append((case.view_text, case.update_text, case.store))
    rng = random.Random(23)
    for view_text, update_text, below in rng.sample(list(free_space()), 300):
        store = DocumentStore()
        store.add("s", parse_document(free_space_doc(rng, below)))
        cases.append((view_text, update_text, store))
    for view_text, update_text, store in cases:
        view, dv = parse_view_def(view_text), parse_update(update_text)
        variables = {b.var for stmt in (view, dv) for b in stmt.bindings}
        names = {
            m.group()
            for text in (view_text, update_text)
            for m in _NAME.finditer(text)
            if m.group()[0] != '"'
        }
        labels = (names - variables - KEYWORDS).union(
            *({n.label for n in iter_nodes(doc)} for doc in store.docs.values())
        )
        # the two kinds of name are apart, so each can be renamed alone
        assert not labels & variables
        yield (view_text, update_text, store), view, dv, labels


def test_renaming_variables_changes_no_outcome():
    rng = random.Random(21)
    for (view_text, update_text, store), view, dv, _labels in _renaming_cases():
        long = ("".join(rng.choices(string.ascii_lowercase, k=12)) for _ in "1234")
        targets = rng.sample(["doc", "view", "c", *long], 7)
        view_vars = [b.var for b in view.bindings]
        in_view = dict(zip(view_vars, targets))
        # the update's first variable reuses a view variable's new name
        reused = rng.choice(targets[: len(view_vars)])
        in_update = dict(
            zip([b.var for b in dv.bindings], [reused, *targets[len(view_vars) :]])
        )
        # an update's action names no variable, only labels and payloads
        head, opener, action = re.split(
            r"([{(])\s*(?=insert|delete)", update_text, maxsplit=1
        )
        renamed = (
            _rename(view_text, in_view),
            _rename(head, in_update) + opener + action,
        )
        before = _judged(view_text, update_text, store)
        assert _judged(*renamed, store) == before, renamed


def test_renaming_labels_changes_no_outcome():
    rng = random.Random(22)
    translated = 0
    for (view_text, update_text, store), _view, _dv, labels in _renaming_cases():
        olds = sorted(labels)
        news = rng.sample(["x", "r", "doc", "view", "v", "e", "c", *_POOL], len(olds))
        to, back = dict(zip(olds, news)), dict(zip(news, olds))
        relabelled = DocumentStore()
        for name, doc in store.docs.items():
            relabelled.add(name, _relabel(doc, to))
        renamed = (_rename(view_text, to), _rename(update_text, to), relabelled)
        before = _judged(view_text, update_text, store)
        assert _judged(*renamed, back) == before, renamed[:2]
        translated += isinstance(before, tuple)
    assert translated > 250
