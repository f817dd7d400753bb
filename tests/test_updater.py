"""Update application: context form, action semantics, edit logs."""

from __future__ import annotations

import json

import pytest

from xview.errors import (
    LevelMismatch,
    RootLabelMismatch,
    TargetIsRoot,
    TargetNotElement,
)
from xview.evaluator import evaluate_view
from xview.lang import (
    Binding,
    DeleteBinding,
    PathEqString,
    UpdateTarget,
    parse_update,
    parse_view_def,
    render_update,
)
from xview.updater import (
    Deleted,
    Inserted,
    apply_update,
    context_form,
    edit_to_json,
    replay_edits,
)
from xview.xml_model import (
    DocRoot,
    DocumentStore,
    QualifiedPath,
    locate,
    parse_document,
    serialize,
    string_value,
)
from .conftest import QBK_DS_PRINTED, QBK_DV


def test_context_form_books_update():
    # condition and target pair under their common prefix Qbk/use
    form = context_form(parse_update(QBK_DV))
    assert form.bindings == (
        Binding("c", QualifiedPath(DocRoot("Qbk"), ("Qbk", "use"))),
    )
    assert form.conditions == (PathEqString(("c", ("title",)), "IS"),)
    assert form.target == UpdateTarget("c", ("auths",))
    assert render_update(form) == (
        'for c in doc("Qbk")/Qbk/use\n'
        'where c/title="IS"\n'
        "update c/auths { insert <aName>Susan</aName> }"
    )


def test_context_form_root_update():
    # the root-deletion exception: the common prefix is the view root, but
    # c ranges over the deleted wrapper trees and each is deleted as a
    # binding
    form = context_form(
        parse_update('for u in v where u/e/C="1" update u ( delete e )')
    )
    assert form.bindings == (Binding("c", QualifiedPath(DocRoot("v"), ("v", "e"))),)
    assert form.conditions == (PathEqString(("c", ("C",)), "1"),)
    assert form.target == UpdateTarget("c", (), parent_step=True)
    assert form.action == DeleteBinding("c")
    # another label at the root keeps the common prefix, the view root
    other = context_form(
        parse_update('for u in v where u/e/C="1" update u ( delete f )')
    )
    assert other.bindings[0].source.steps == ("v",)
    assert other.conditions == (PathEqString(("c", ("e", "C")), "1"),)
    assert other.target == UpdateTarget("c", ())


def test_context_form_condition_equals_target():
    form = context_form(
        parse_update('for r in v/e where r/C="1" update r/C { delete <D>1</D> }')
    )
    assert form.bindings[0].source.steps == ("v", "e", "C")
    assert form.conditions == (PathEqString(("c", ()), "1"),)
    assert form.target == UpdateTarget("c", ())


def test_context_form_rejects_source_level_statement():
    with pytest.raises(LevelMismatch):
        context_form(parse_update(QBK_DS_PRINTED))


def _one_doc(xml: str) -> DocumentStore:
    store = DocumentStore()
    store.add("d", parse_document(xml))
    return store


def _deletions(log) -> list[tuple[str, int, int, str]]:
    return [
        (json.loads(edit_to_json(e))["op"], e.parent_id, e.node_id, serialize(e.tree))
        for e in log
    ]


def _assert_replay_reproduces(log, snapshot: DocumentStore, updated: DocumentStore):
    replay_edits(log, snapshot)
    for name in updated.docs:
        assert serialize(snapshot.get(name)) == serialize(updated.get(name))


def test_apply_action_insert_appends_last():
    store = _one_doc("<r><auths><aName>John</aName></auths></r>")
    stmt = parse_update(
        'for x in doc("d")/r/auths where x/aName="John" '
        "update x { insert <aName>Susan</aName> }"
    )
    edits = apply_update(stmt, store)
    assert serialize(store.get("d")) == (
        "<r><auths><aName>John</aName><aName>Susan</aName></auths></r>"
    )
    assert len(edits) == 1 and isinstance(edits[0], Inserted)


def test_apply_action_delete_label_removes_all():
    store = _one_doc("<r><A><B>b1</B><C><D>1</D></C><C><D>2</D></C><H>1</H></A></r>")
    a = locate(store.get("d"), ("A",))[0]
    c1, c2 = locate(a, ("C",))
    snapshot = store.copy()
    stmt = parse_update('for a in doc("d")/r/A where a/H="1" update a ( delete C )')
    edits = apply_update(stmt, store)
    assert [c.label for c in a.children] == ["B", "H"]
    assert len(edits) == 2 and all(isinstance(e, Deleted) for e in edits)
    assert _deletions(edits) == [
        ("delete", a.node_id, c1.node_id, "<C><D>1</D></C>"),
        ("delete", a.node_id, c2.node_id, "<C><D>2</D></C>"),
    ]
    _assert_replay_reproduces(edits, snapshot, store)


def test_apply_action_delete_tree_no_match():
    store = _one_doc("<r><A><B>b1</B></A></r>")
    stmt = parse_update(
        'for a in doc("d")/r/A where a/B="b1" update a { delete <X>1</X> }'
    )
    assert apply_update(stmt, store) == []
    assert serialize(store.get("d")) == "<r><A><B>b1</B></A></r>"


def test_apply_action_insert_into_text_leaf_rejected():
    store = _one_doc("<r><t>1</t></r>")
    stmt = parse_update('for x in doc("d")/r/t where x="1" update x { insert <x>2</x> }')
    with pytest.raises(TargetNotElement):
        apply_update(stmt, store)


def test_failing_update_changes_nothing():
    # the first A's T is an element, the second's a text leaf: the statement
    # fails on the second application, and the first must not have landed
    xml = "<R><A><C>1</C><T><U>u</U></T></A><A><C>1</C><T>t</T></A></R>"
    store = _one_doc(xml)
    stmt = parse_update(
        'for x in doc("d")/R/A where x/C="1" update x/T { insert <U>n</U> }'
    )
    with pytest.raises(TargetNotElement):
        apply_update(stmt, store)
    assert serialize(store.get("d")) == xml


def test_apply_translated_update_to_source(qbk_store):
    ds = parse_update(QBK_DS_PRINTED)
    before = {name: serialize(t) for name, t in qbk_store.docs.items()}
    log = apply_update(ds, qbk_store)
    assert len(log) == 1 and isinstance(log[0], Inserted)
    books = locate(qbk_store.get("bkInf.xml"), ("book",))
    assert string_value(locate(books[0], ("auths",))[0]) == "JohnMarySusan"
    for book in books[1:]:
        assert "Susan" not in string_value(book)
    assert serialize(qbk_store.get("subjInf.xml")) == before["subjInf.xml"]
    # the one inserted edit names the IS book's auths node
    assert log[0].parent_id == locate(books[0], ("auths",))[0].node_id


def test_apply_view_update_to_instance(qbk_view, qbk_store):
    instance = evaluate_view(qbk_view, qbk_store)
    log = apply_update(parse_update(QBK_DV), instance)
    assert len(log) == 2  # two wrapper trees carry the IS title
    for use in instance.tree.children:
        title = string_value(locate(use, ("title",))[0])
        names = string_value(locate(use, ("auths",))[0])
        assert ("Susan" in names) == (title == "IS")


def test_apply_no_match_is_identity(qbk_store):
    ds = parse_update(
        'for x in doc("bkInf.xml")/bkInf/book where x/title="ZZZ" '
        "update x/auths { insert <aName>Nobody</aName> }"
    )
    before = serialize(qbk_store.get("bkInf.xml"))
    assert apply_update(ds, qbk_store) == []
    assert serialize(qbk_store.get("bkInf.xml")) == before


def test_first_application_collapse():
    store = DocumentStore()
    store.add("d", parse_document("<r><A><B>1</B><B>1</B></A></r>"))
    # two tuples bind the same A; the insert is applied once
    stmt = parse_update(
        'for x in doc("d")/r/A, y in x/B where y="1" update x { insert <N>n</N> }'
    )
    log = apply_update(stmt, store)
    assert len(log) == 1
    assert serialize(store.get("d")) == "<r><A><B>1</B><B>1</B><N>n</N></A></r>"


def test_delete_tree_removes_all_value_equal_children():
    store = _one_doc("<r><A><C>x</C><C>x</C><C>y</C><B>1</B></A></r>")
    a = locate(store.get("d"), ("A",))[0]
    c1, c2, _ = locate(a, ("C",))
    snapshot = store.copy()
    stmt = parse_update(
        'for a in doc("d")/r/A where a/B="1" update a { delete <C>x</C> }'
    )
    log = apply_update(stmt, store)
    assert len(log) == 2
    assert serialize(store.get("d")) == "<r><A><C>y</C><B>1</B></A></r>"
    assert _deletions(log) == [
        ("delete", a.node_id, c1.node_id, "<C>x</C>"),
        ("delete", a.node_id, c2.node_id, "<C>x</C>"),
    ]
    _assert_replay_reproduces(log, snapshot, store)


def test_parent_step_deletion():
    store = DocumentStore()
    store.add("d", parse_document("<R><A><C>1</C><T>t1</T><T>t2</T></A></R>"))
    stmt = parse_update(
        'for x1 in doc("d")/R/A where x1/C="1" update x1/T/.. ( delete T )'
    )
    apply_update(stmt, store)
    assert serialize(store.get("d")) == "<R><A><C>1</C></A></R>"


def test_binding_deletion_spares_siblings():
    store = _one_doc("<R><A><C>1</C></A><A><C>2</C></A><A><C>1</C></A></R>")
    root = store.get("d")
    a1, _, a3 = locate(root, ("A",))
    snapshot = store.copy()
    stmt = parse_update(
        'for x1 in doc("d")/R/A where x1/C="1" update x1/.. ( delete A )'
    )
    log = apply_update(stmt, store)
    assert len(log) == 2
    assert serialize(store.get("d")) == "<R><A><C>2</C></A></R>"
    assert _deletions(log) == [
        ("delete", root.node_id, a1.node_id, "<A><C>1</C></A>"),
        ("delete", root.node_id, a3.node_id, "<A><C>1</C></A>"),
    ]
    _assert_replay_reproduces(log, snapshot, store)


def test_binding_deletion_of_root_rejected():
    store = DocumentStore()
    store.add("d", parse_document("<r><A>1</A></r>"))
    stmt = parse_update('for x in doc("d")/r where x/A="1" update x/.. ( delete r )')
    with pytest.raises(TargetIsRoot):
        apply_update(stmt, store)


def test_level_mismatch(qbk_store, qbk_view):
    with pytest.raises(LevelMismatch):
        apply_update(parse_update(QBK_DV), qbk_store)
    instance = evaluate_view(qbk_view, qbk_store)
    with pytest.raises(LevelMismatch):
        apply_update(parse_update(QBK_DS_PRINTED), instance)


def test_view_update_pairs_condition_under_common_prefix(qbk_view, qbk_store):
    # binding at the root while condition and target descend through the
    # wrapper still pairs per wrapper tree, not per binding
    instance = evaluate_view(qbk_view, qbk_store)
    deep = parse_update(
        'for r in view(Qbk)/Qbk where r/use/title="IS" '
        "update r/use/auths { insert <aName>Zed</aName> }"
    )
    apply_update(deep, instance)
    for use in instance.tree.children:
        title = string_value(locate(use, ("title",))[0])
        names = string_value(locate(use, ("auths",))[0])
        assert ("Zed" in names) == (title == "IS")


def test_view_update_common_prefix_reaches_below_the_wrapper():
    # the common prefix v/e/T pairs the condition with each T on its own,
    # not with the whole wrapper tree
    store = _one_doc("<R><A><C>c</C><T><U>1</U></T><T><U>2</U></T></A></R>")
    view = parse_view_def('<v>{for x in doc("d")/R/A return <e>{x/C}{x/T}</e>}</v>')
    instance = evaluate_view(view, store)
    dv = parse_update('for r in v/e where r/T/U="1" update r/T { insert <W>w</W> }')
    log = apply_update(dv, instance)
    assert len(log) == 1
    assert serialize(instance.tree) == (
        "<v><e><C>c</C><T><U>1</U><W>w</W></T><T><U>2</U></T></e></v>"
    )


def test_view_update_on_another_root_label_rejected():
    store = _one_doc("<R><A><C>1</C></A></R>")
    view = parse_view_def('<v>{for x in doc("d")/R/A return <e>{x/C}</e>}</v>')
    instance = evaluate_view(view, store)
    dv = parse_update('for r in w/e where r/C="1" update r { delete C }')
    with pytest.raises(RootLabelMismatch) as info:
        apply_update(dv, instance)
    assert "'v'" in str(info.value) and "'w'" in str(info.value)
    assert serialize(instance.tree) == "<v><e><C>1</C></e></v>"


def test_localized_root_wrapper_deletion():
    store = _one_doc("<R><A><C>1</C></A><A><C>2</C></A></R>")
    view = parse_view_def('<v>{for x1 in doc("d")/R/A return <e>{x1/C}</e>}</v>')
    instance = evaluate_view(view, store)
    e1 = instance.tree.children[0]
    # the instance as a one-document store, so the log replays onto a snapshot
    updated = DocumentStore()
    updated.add("v", instance.tree)
    snapshot = updated.copy()
    dv = parse_update('for u in v where u/e/C="1" update u ( delete e )')
    log = apply_update(dv, instance)
    # only the wrapper tree whose own subtree satisfies the condition is gone
    assert len(log) == 1
    assert serialize(instance.tree) == "<v><e><C>2</C></e></v>"
    assert _deletions(log) == [
        ("delete", instance.tree.node_id, e1.node_id, "<e><C>1</C></e>"),
    ]
    _assert_replay_reproduces(log, snapshot, updated)


def test_edit_log_json_schema(qbk_store):
    log = apply_update(parse_update(QBK_DS_PRINTED), qbk_store)
    record = json.loads(edit_to_json(log[0]))
    assert set(record) == {"op", "parent", "tree"}
    assert record["op"] == "insert"
    assert record["tree"] == "<aName>Susan</aName>"


def test_replay_edits_reproduces_application(qbk_store):
    ds = parse_update(QBK_DS_PRINTED)
    snapshot = qbk_store.copy()
    log = apply_update(ds, qbk_store)
    _assert_replay_reproduces(log, snapshot, qbk_store)


def test_replay_edits_rejects_a_log_whose_parent_the_store_lacks(qbk_store):
    # a replay onto a store without the logged parent is caller misuse, not
    # an update deleting a root: a ValueError naming the id, and no edit
    log = apply_update(parse_update(QBK_DS_PRINTED), qbk_store.copy())
    other = DocumentStore()
    other.add("d", parse_document("<r><A/></r>"))
    with pytest.raises(ValueError, match=f"edit parent {log[0].parent_id} "):
        replay_edits(log, other)
    assert serialize(other.get("d")) == "<r><A/></r>"


def test_enumeration_and_conditions_see_pre_state():
    # the statement inserts a subtree that would itself qualify as a new
    # binding; planning against the pre-state applies the action exactly once
    store = DocumentStore()
    store.add("d", parse_document("<r><A><B>1</B></A></r>"))
    stmt = parse_update(
        'for x in doc("d")/r/A where x/B="1" update x/.. { insert <A><B>1</B></A> }'
    )
    log = apply_update(stmt, store)
    assert len(log) == 1
    assert serialize(store.get("d")) == "<r><A><B>1</B></A><A><B>1</B></A></r>"
