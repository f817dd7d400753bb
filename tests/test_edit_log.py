"""The edit log: deleted subtrees and insertion payloads shared with the
log, grouped execution, the copies a verification makes, and the linear cost
of applying and verifying deletions."""

from __future__ import annotations

import contextlib
import json
import random
import time

import pytest

from xview import evaluator, updater, verifier, xml_model
from xview.evaluator import ViewInstance, evaluate_view
from xview.fuzzgen import random_case
from xview.lang import parse_update, parse_view_def
from xview.translator import Case, Translated, translate
from xview.updater import (
    Deleted,
    Inserted,
    PlannedOp,
    _mutate,
    apply_update,
    edit_to_json,
    execute_plan,
    plan_update,
    replay_edits,
)
from xview.verifier import _lemma2, verify_translation
from xview.xml_model import (
    DocumentStore,
    copy_tree,
    element,
    iter_nodes,
    locate,
    parse_document,
    serialize,
    text_leaf,
    value_equal,
)

ITEM_VIEW = '<v>{for x1 in doc("d")/R/A return <e>{x1/C}{x1/T}</e>}</v>'
ROOT_DELETION = 'for u in v where u/e/C="1" update u ( delete e )'
LABEL_DELETION = 'for r in v/e where r/C="1" update r/T ( delete W )'
TREE_DELETION = 'for r in v/e where r/C="1" update r/T { delete <W>w1</W> }'
INSERTION = 'for r in v/e where r/C="1" update r/T { insert <N><X>n</X></N> }'


def _items(marks: str, ws: int = 2) -> str:
    """An R document with one A item per mark: its C holds the mark, and
    its T holds ``ws`` W leaves, the first of them w1."""
    items = "".join(
        f"<A><C>{m}</C><T>{''.join(f'<W>w{k + 1}</W>' for k in range(ws))}</T></A>"
        for m in marks
    )
    return f"<R>{items}</R>"


def _store(xml: str) -> DocumentStore:
    store = DocumentStore()
    store.add("d", parse_document(xml))
    return store


def _fingerprint(log) -> list[tuple[str, list[int]]]:
    return [(serialize(e.tree), [n.node_id for n in iter_nodes(e.tree)]) for e in log]


def _store_state(store: DocumentStore) -> list[tuple[str, str, list[int]]]:
    return [
        (name, serialize(t), [n.node_id for n in iter_nodes(t)])
        for name, t in store.docs.items()
    ]


# ----------------------------------------------------------------------
# A Deleted record holds the removed subtree itself


@pytest.mark.parametrize(
    "update, case",
    [(ROOT_DELETION, Case.T4), (LABEL_DELETION, Case.T1), (TREE_DELETION, Case.T1)],
)
def test_deleted_records_share_the_removed_subtree_safely(update, case, monkeypatch):
    view, dv = parse_view_def(ITEM_VIEW), parse_update(update)
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is case
    store = _store(_items("1212"))

    # each record is the very node that left the store
    updated = store.copy()
    nodes = {n.node_id: n for n in iter_nodes(updated.get("d"))}
    log = apply_update(out.statement, updated)
    assert log and all(isinstance(e, Deleted) for e in log)
    left = {n.node_id for n in iter_nodes(updated.get("d"))}
    for edit in log:
        assert edit.tree is nodes[edit.node_id]
        assert edit.node_id not in left

    # later edits of the updated store leave the log as it was
    applied = _fingerprint(log)
    for later in (
        'for x in doc("d")/R/A where x/C="2" update x/T { insert <W>w9</W> }',
        'for x in doc("d")/R/A where x/C="2" update x/T ( delete W )',
    ):
        assert apply_update(parse_update(later), updated)
        assert _fingerprint(log) == applied

    # a full verification, every undo and redo included, reads the log it
    # computes and leaves it as it found it
    seen = _recorded_routes(monkeypatch, lambda routes: _store_state(routes.store))
    report = verify_translation(view, dv, out.statement, store, case)
    assert report.precise and all(ok for _name, ok in report.lemma_checks)
    ((routes, route_a, before),) = seen
    assert len(routes.log) == len(log)
    assert _fingerprint(routes.log) == before

    # and so does every later reader of the log; its deleted subtrees are
    # back in the sources, so a replay onto a copy of them rebuilds route A
    for edit in routes.log:
        assert json.loads(edit_to_json(edit))["tree"] == serialize(edit.tree)
    assert _lemma2(routes, case)
    assert _fingerprint(routes.log) == before
    snapshot = routes.store.copy()
    replay_edits(routes.log, snapshot)
    assert _store_state(snapshot) == route_a
    assert _fingerprint(routes.log) == before


def _recorded_routes(monkeypatch, inside=None) -> list:
    """Wrap ``verifier._compute_routes`` so that each verification appends
    to the returned list its routes, what ``inside`` reads off them while
    the store is in route A's state, as the checks leave it, and the log's
    fingerprint as computed."""
    seen = []
    compute = verifier._compute_routes

    @contextlib.contextmanager
    def recording(*args):
        with compute(*args) as routes:
            fingerprint = _fingerprint(routes.log)
            yield routes
            seen.append((routes, inside and inside(routes), fingerprint))

    monkeypatch.setattr(verifier, "_compute_routes", recording)
    return seen


def test_inserted_records_hold_the_statement_payload(monkeypatch):
    view, dv = parse_view_def(ITEM_VIEW), parse_update(INSERTION)
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T1
    payload = out.statement.action.tree
    printed = serialize(payload)
    store = _store(_items("1212"))

    # applying the statement logs its payload itself and places copies
    updated = store.copy()
    log = apply_update(out.statement, updated)
    assert len(log) == 2 and all(isinstance(e, Inserted) for e in log)
    assert all(edit.tree is payload for edit in log)
    placed = [t.children[-1] for t in locate(updated.get("d"), ("A", "T"))]
    assert all(payload not in iter_nodes(t) for t in updated.docs.values())

    # later edits of the placed copies leave the payload as it was
    for later in (
        'for x in doc("d")/R/A where x/C="1" update x/T/N { insert <Y>y</Y> }',
        'for x in doc("d")/R/A where x/C="1" update x/T/N ( delete X )',
    ):
        assert apply_update(parse_update(later), updated)
    assert sum(serialize(t) == "<N><Y>y</Y></N>" for t in placed) == 2
    assert serialize(payload) == printed

    # so does a verification, every undo and redo included
    def held(routes):
        return [n for t in routes.store.docs.values() for n in iter_nodes(t)]

    seen = _recorded_routes(monkeypatch, held)
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.precise and all(ok for _name, ok in report.lemma_checks)
    ((routes, route_a, _log),) = seen
    assert len(routes.log) == 2 and all(e.tree is payload for e in routes.log)
    for nodes in (held(routes), route_a):
        assert payload not in nodes
    assert len(route_a) > len(held(routes))  # route A held the placed copies
    assert serialize(payload) == printed


def test_route_b_updates_the_view_evaluated_on_the_sources(monkeypatch):
    view, dv = parse_view_def(ITEM_VIEW), parse_update(ROOT_DELETION)
    out = translate(view, dv)
    store = _store(_items("1212"))
    evaluated = []
    evaluate = verifier.evaluate_view

    def recording(view, on, **options):
        evaluated.append((on, options, evaluate(view, on, **options)))
        return evaluated[-1][2]

    def rows(routes):
        """Per wrapper of route B's instance, its row trees' identities."""
        return [[id(t) for t in w.children] for w in routes.via_view.tree.children]

    monkeypatch.setattr(verifier, "evaluate_view", recording)
    seen = _recorded_routes(monkeypatch, rows)
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.precise and all(ok for _name, ok in report.lemma_checks)
    ((routes, updated, _log),) = seen
    # the one evaluation a verification makes, on the unedited sources, over
    # their own rows
    ((on, options, on_sources),) = evaluated
    assert on is store and options == {"copy_rows": False}
    assert routes.via_view is on_sources
    assert len(updated) == 2  # the two wrappers left
    assert len(routes.via_view.tuples) == 4  # as evaluated on the sources
    # a root deletion edits no row: each row left is the source's own tree
    items = locate(store.get("d"), ("A",))
    shown = [[id(t) for t in locate(a, ("C",)) + locate(a, ("T",))] for a in items]
    assert updated == shown[1::2]
    # afterwards all four wrappers are back, each over the source's own rows
    assert rows(routes) == shown


@pytest.mark.parametrize(
    "update",
    [ROOT_DELETION, LABEL_DELETION, TREE_DELETION, INSERTION],
    ids=["root-deletion", "label-deletion", "tree-deletion", "insertion"],
)
def test_route_b_is_put_back_and_only_l3_reads_the_view_atom(update, monkeypatch):
    view, dv = parse_view_def(ITEM_VIEW), parse_update(update)
    out = translate(view, dv)
    assert isinstance(out, Translated)
    store = _store(_items("1212"))
    made = []
    form = updater.context_form
    monkeypatch.setattr(
        updater, "context_form", lambda stmt: made.append(form(stmt)) or made[-1]
    )
    seen = _recorded_routes(monkeypatch)
    for case in (None, out.case):
        made.clear()
        report = verify_translation(view, dv, out.statement, store, case)
        # route B's plan alone works the context form out, once; the lemma
        # suite reads the form that plan recorded
        assert report.precise and len(made) == 1
        assert seen[-1][0].form is made[-1]
        # route B's instance is the view on the sources again, every wrapper
        # back
        via_view = seen[-1][0].via_view
        assert len(via_view.tree.children) == 4
        assert value_equal(via_view.tree, evaluate_view(view, store).tree)
    assert report.lemma_checks == [("L1", True), ("L2", True), ("L3", True)]


def test_t4_verify_creates_only_the_evaluated_nodes_and_route_a_shells(monkeypatch):
    # a copy of the store, of a row or of an inserted payload would take
    # fresh ids
    view, dv = parse_view_def(ITEM_VIEW), parse_update(ROOT_DELETION)
    out = translate(view, dv)
    store = _store(_items("12" * 80, ws=1))
    seen = _recorded_routes(monkeypatch)
    first = xml_model.fresh_id()
    report = verify_translation(view, dv, out.statement, store, out.case)
    created = xml_model.fresh_id() - first - 1
    assert report.precise and [name for name, _ok in report.lemma_checks] == [
        "L1",
        "L2",
        "L3",
    ]
    ((routes, _inside, _log),) = seen
    # route B's evaluation: a root and one wrapper per item, over the
    # sources' own rows, which a root deletion never copies
    route_b = 1 + 160
    # route A's view: a root and one wrapper shell per row left
    route_a = 1 + len(routes.via_source.tuples)
    assert route_a == 1 + 80 and len(routes.via_source.tree.children) == 80
    # L3 reads route B's flags and builds no wrapper of its own
    assert created == route_b + route_a == 242


def _recorded_copies(monkeypatch) -> dict[str, list]:
    """Record, per module, the trees each ``copy_tree`` call copies."""
    copied: dict[str, list] = {}
    for module in (evaluator, updater, verifier):
        calls = copied[module.__name__.rsplit(".", 1)[1]] = []

        def recording(tree, *args, _copy=module.copy_tree, _calls=calls, **kwargs):
            _calls.append(tree)
            return _copy(tree, *args, **kwargs)

        monkeypatch.setattr(module, "copy_tree", recording)
    return copied


@pytest.mark.parametrize("items", [16, 160])
def test_a_verify_copies_only_the_rows_its_plans_edit(items, monkeypatch):
    view = parse_view_def(ITEM_VIEW)
    marks = "12" * (items // 2)
    copied = _recorded_copies(monkeypatch)

    # a root deletion edits no row: no tree is copied at all
    dv = parse_update(ROOT_DELETION)
    out = translate(view, dv)
    report = verify_translation(view, dv, out.statement, _store(_items(marks)), out.case)
    assert report.precise
    assert copied == {"evaluator": [], "updater": [], "verifier": []}

    # an insertion under T copies the rows of the wrappers whose C reads 1,
    # the wrappers both plans edit, and the payload once per edit placed
    dv = parse_update(INSERTION)
    out = translate(view, dv)
    store = _store(_items(marks))
    shown = locate(store.get("d"), ("A",))
    edited = [a for a in shown if locate(a, ("C",))[0].text == "1"]
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.precise
    rows = [t for a in edited for t in locate(a, ("C",)) + locate(a, ("T",))]
    assert len(rows) == items and len(copied["verifier"]) == len(rows)
    assert all(c is r for c, r in zip(copied["verifier"], rows))
    assert copied["evaluator"] == []
    # route A's execution, route B's and every probe's redo place one each
    payload = out.statement.action.tree
    assert len(copied["updater"]) == 3 * len(edited)
    assert all(value_equal(tree, payload) for tree in copied["updater"])


def test_replayed_log_matches_the_applied_one():
    # the same log replayed onto an id-preserving snapshot rebuilds the
    # applied store, node ids included, and removes nothing twice
    store = _store(_items("121121"))
    snapshot = store.copy()
    log = apply_update(
        translate(parse_view_def(ITEM_VIEW), parse_update(ROOT_DELETION)).statement,
        store,
    )
    replay_edits(log, snapshot)
    assert _store_state(snapshot) == _store_state(store)
    replay_edits(log, snapshot)
    assert _store_state(snapshot) == _store_state(store)


# ----------------------------------------------------------------------
# Grouped execution against one edit at a time


def _one_at_a_time(plan: list[PlannedOp]):
    """The reference execution: every edit through ``_mutate``, in order."""
    edits = []
    for op in plan:
        for edit in op.edits:
            _mutate(op.parent, edit)
        edits.extend(op.edits)
    return edits


def _assert_grouped_matches_reference(plan_on) -> int:
    """Plan twice on fresh id-preserving copies and run one plan grouped,
    the other one edit at a time; return the number of deletions.

    Inserted trees take fresh ids in each run, so those read as 0."""
    grouped_store, plan = plan_on()
    reference_store, reference_plan = plan_on()
    planned = {n.node_id for t in grouped_store.docs.values() for n in iter_nodes(t)}
    log = execute_plan(plan)
    reference = _one_at_a_time(reference_plan)

    def ids(tree):
        return [n.node_id if n.node_id in planned else 0 for n in iter_nodes(tree)]

    def state(store, log):
        docs = [(name, serialize(t), ids(t)) for name, t in store.docs.items()]
        edits = [
            (type(e).__name__, e.parent_id, serialize(e.tree), ids(e.tree)) for e in log
        ]
        return docs, edits

    assert state(grouped_store, log) == state(reference_store, reference)
    return sum(isinstance(e, Deleted) for e in log)


def test_grouped_execution_matches_one_edit_at_a_time_on_fuzz_cases():
    deletions = translated = 0
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(25):
            case = random_case(rng)
            out = translate(case.view, case.update)
            if not isinstance(out, Translated):
                continue
            translated += 1

            def source(case=case, out=out):
                store = case.store.copy()
                return store, plan_update(out.statement, store)

            def view_level(case=case, instance=evaluate_view(case.view, case.store)):
                tree = copy_tree(instance.tree, preserve_ids=True)
                store = DocumentStore()
                store.add("v", tree)
                return store, plan_update(case.update, ViewInstance(tree, instance.tuples))

            deletions += _assert_grouped_matches_reference(source)
            deletions += _assert_grouped_matches_reference(view_level)
    assert translated > 200 and deletions > 200


@pytest.mark.parametrize(
    "keep",
    [
        lambda p, c: False,  # delete all
        lambda p, c: True,  # delete none
        lambda p, c: (p + c) % 2 == 0,  # alternate, offset per parent
    ],
    ids=["all", "none", "alternate"],
)
def test_grouped_execution_matches_one_edit_at_a_time_on_built_plans(keep):
    xml = "<R>" + "".join(
        f"<P>{''.join(f'<K>{p}{c}</K>' for c in range(7))}</P>" for p in range(2)
    ) + "</R>"
    original = _store(xml)

    def plan_on():
        store = original.copy()
        parents = store.get("d").children
        plan = [
            # interleave the two parents' applications
            PlannedOp(child, parent, [Deleted(parent.node_id, child.node_id, child)])
            for c in range(7)
            for p, parent in enumerate(parents)
            for child in [parent.children[c]]
            if not keep(p, c)
        ]
        return store, plan

    assert _assert_grouped_matches_reference(plan_on) == sum(
        not keep(p, c) for p in range(2) for c in range(7)
    )


# ----------------------------------------------------------------------
# The benchmark's counters and the cost of wide deletions


def test_t4_verify_replays_each_edit_once_and_never_copies_the_store(monkeypatch):
    view, dv = parse_view_def(ITEM_VIEW), parse_update(ROOT_DELETION)
    out = translate(view, dv)
    store = _store(_items("12" * 80, ws=1))
    replays: list[int] = []
    copies: list[int] = []
    replay, copy = verifier.replay_edits, DocumentStore.copy

    def counted_replay(edits, target, places=None):
        replays.append(len(edits))
        return replay(edits, target, places)

    def counted_copy(self):
        copies.append(1)
        return copy(self)

    monkeypatch.setattr(verifier, "replay_edits", counted_replay)
    monkeypatch.setattr(DocumentStore, "copy", counted_copy)
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.precise
    assert replays == [1] * 80
    assert copies == []


def test_label_deletion_redo_finds_each_parent_at_its_first_node(monkeypatch):
    # each probe's redo replays onto a store holding just the edit's parent,
    # which find_node matches as a document root before it walks any tree;
    # a scan from the document root would read thousands of nodes per probe
    view, dv = parse_view_def(ITEM_VIEW), parse_update(LABEL_DELETION)
    out = translate(view, dv)
    assert isinstance(out, Translated) and out.case is Case.T1
    store = _store(_items("12" * 1280, ws=1))
    visited = [0]
    walk = xml_model.iter_nodes

    def counted(tree):  # the walk DocumentStore.find_node reads
        for node in walk(tree):
            visited[0] += 1
            yield node

    monkeypatch.setattr(xml_model, "iter_nodes", counted)
    report = verify_translation(view, dv, out.statement, store, out.case)
    assert report.precise and all(ok for _name, ok in report.lemma_checks)
    assert visited == [0]  # one probe per deleted W, each parent a root


def test_wide_root_deletion_is_linear():
    # 25,000 of 50,000 siblings go; filtering the child list once per
    # deleted child would take tens of seconds here
    root = element(
        "R",
        (element("A", [text_leaf("C", "12"[i % 2])]) for i in range(50_000)),
    )
    store = DocumentStore()
    store.add("d", root)
    stmt = parse_update('for x in doc("d")/R/A where x/C="1" update x/.. ( delete A )')
    start = time.perf_counter()
    log = apply_update(stmt, store)
    took = time.perf_counter() - start
    assert len(log) == 25_000 and len(root.children) == 25_000
    assert all(a.children[0].text == "2" for a in root.children)
    assert took < 5.0
    # one deletion's replay takes the child out of the same list
    kids = root.children
    kids.insert(0, log[0].tree)
    replay_edits([log[0]], store)
    assert root.children is kids and len(kids) == 25_000
