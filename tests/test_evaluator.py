"""View evaluation: tuple production, conditions, wrapper-tree construction."""

from __future__ import annotations

import collections
import itertools
import operator
import random

import pytest

from xview.errors import (
    RootLabelMismatch,
    TupleBudgetExceeded,
    UnknownDocument,
    XviewError,
)
from xview import evaluator, updater
from xview.evaluator import (
    bind_level,
    build_etree,
    enumerate_bindings,
    eval_condition,
    evaluate_view,
    row_trees,
)
from xview.fuzzgen import gen_t1, gen_t2, random_case
from xview.lang import (
    PathEqString,
    ReturnExpr,
    atom_sides,
    parse_update,
    parse_view_def,
)
from xview.translator import Case, Translated, translate
from xview.updater import apply_update, plan_update
from xview.xml_model import (
    DocumentStore,
    iter_nodes,
    locate,
    parse_document,
    serialize,
    VarRoot,
    string_value,
    value_equal,
)
from .conftest import (
    BKINF_XML,
    D1_NO_B_XML,
    EX1_VIEW,
    QBK_VIEW,
    SUBJINF_XML,
    join_session_store,
)


def _brute_force_tuples(view, store):
    """Independent oracle: literal nested loops over located candidates."""
    result = [{}]
    for binding in view.bindings:
        step = []
        for partial in result:
            src = binding.source
            if hasattr(src.root, "doc"):
                tree = store.get(src.root.doc)
                assert tree.label == src.steps[0]
                candidates = locate(tree, src.steps[1:])
            else:
                candidates = locate(partial[src.root.var], src.steps)
            for node in candidates:
                combined = dict(partial)
                combined[binding.var] = node
                step.append(combined)
        result = step
    return result


def test_fortup_d1(d1_store, ex1_view):
    tuples = enumerate_bindings(ex1_view.bindings, d1_store)
    assert len(tuples) == 2
    a = d1_store.get("r").children[0]
    cs = locate(a, ("C",))
    h = locate(a, ("H",))[0]
    # both tuples share the A and H bindings; y walks the C children in order
    for tup in tuples:
        assert tup["x"].node_id == a.node_id
        assert tup["z"].node_id == h.node_id
    assert [t["y"].node_id for t in tuples] == [c.node_id for c in cs]


def test_fortup_matches_brute_force_oracle(d1_store, ex1_view):
    expected = _brute_force_tuples(ex1_view, d1_store)
    got = enumerate_bindings(ex1_view.bindings, d1_store)
    assert len(got) == len(expected)
    for tup, exp in zip(got, expected):
        assert {v: n.node_id for v, n in tup.items()} == {
            v: n.node_id for v, n in exp.items()
        }


def test_fortup_copies_share_source_ids():
    store = DocumentStore()
    store.add(
        "r",
        parse_document(
            "<r><A><C>c</C><H>h</H></A><A><C>c2</C><H>h2</H></A></r>"
        ),
    )
    view = parse_view_def(
        '<v>{for x in doc("r")/r/A, y in x/C, z in x/H return <e>{y}{z}</e>}</v>'
    )
    tuples = enumerate_bindings(view.bindings, store)
    expected = _brute_force_tuples(view, store)
    assert len(tuples) == len(expected) == 2
    roots = locate(store.get("r"), ("A",))
    assert [t["x"].node_id for t in tuples] == [r.node_id for r in roots]


def test_fortup_keeps_value_equal_bindings():
    store = DocumentStore()
    store.add("r", parse_document("<r><A><C>c</C></A><A><C>c</C></A></r>"))
    view = parse_view_def('<v>{for x in doc("r")/r/A return <e>{x/C}</e>}</v>')
    tuples = enumerate_bindings(view.bindings, store)
    assert len(tuples) == 2
    assert tuples[0]["x"].node_id != tuples[1]["x"].node_id
    assert value_equal(tuples[0]["x"], tuples[1]["x"])


def test_fortup_empty_match(d1_store):
    view = parse_view_def('<v>{for x in doc("r")/r/Q return <e>{x}</e>}</v>')
    assert enumerate_bindings(view.bindings, d1_store) == []


def test_fortup_unknown_document(ex1_view):
    with pytest.raises(UnknownDocument):
        enumerate_bindings(ex1_view.bindings, DocumentStore())


def test_fortup_root_label_mismatch(d1_store):
    view = parse_view_def('<v>{for x in doc("r")/other/A return <e>{x}</e>}</v>')
    with pytest.raises(RootLabelMismatch):
        enumerate_bindings(view.bindings, d1_store)


def test_eval_condition_d1(d1_store, ex1_view):
    t1, t2 = enumerate_bindings(ex1_view.bindings, d1_store)
    assert eval_condition(ex1_view.conditions, t1)
    assert not eval_condition(ex1_view.conditions, t2)
    assert eval_condition((), t1)


def test_build_etree_d1(d1_store, ex1_view):
    t1 = enumerate_bindings(ex1_view.bindings, d1_store)[0]
    etree = build_etree(ex1_view.returns, t1, "e")
    # both C subtrees are copied although only the first one joined
    assert serialize(etree) == (
        "<e><B>b1</B><C><D>1</D><F><G>g1</G></F></C>"
        "<C><D>2</D></C><G>g1</G><H>1</H></e>"
    )


def test_build_etree_missing_return_contributes_nothing():
    store = DocumentStore()
    store.add("r", parse_document(D1_NO_B_XML))
    view = parse_view_def(EX1_VIEW)
    instance = evaluate_view(view, store)
    etree = instance.tree.children[0]
    assert [c.label for c in etree.children] == ["C", "C", "G", "H"]


def test_build_etree_all_empty_returns():
    store = DocumentStore()
    store.add("r", parse_document("<r><A><H>1</H></A></r>"))
    view = parse_view_def(
        '<v>{for x in doc("r")/r/A, z in x/H where z="1" return <e>{x/B}{x/C}</e>}</v>'
    )
    instance = evaluate_view(view, store)
    assert serialize(instance.tree) == "<v><e/></v>"


def test_evaluate_view_d1(d1_store, ex1_view):
    instance = evaluate_view(ex1_view, d1_store)
    assert len(instance.tree.children) == 1
    assert len(instance.tuples) == 1


def test_evaluate_view_no_satisfying_tuple(d1_store):
    view = parse_view_def(
        '<v>{for x in doc("r")/r/A, z in x/H where z="7" return <e>{x/B}</e>}</v>'
    )
    assert serialize(evaluate_view(view, d1_store).tree) == "<v/>"


def test_evaluate_books_view(qbk_view, qbk_store):
    instance = evaluate_view(qbk_view, qbk_store)
    uses = instance.tree.children
    assert len(uses) == 4
    for use in uses:
        assert [c.label for c in use.children] == ["auths", "title", "uName", "profs"]
    titles = [string_value(locate(u, ("title",))[0]) for u in uses]
    assert titles == ["IS", "IS", "DB", "AI"]
    unis = [string_value(locate(u, ("uName",))[0]) for u in uses]
    assert unis == ["UniSA", "Swinburne", "UniSA", "Swinburne"]


def test_duplication_law(qbk_view, qbk_store):
    # the IS book joins two subjects, so its auths subtree is copied into
    # exactly two wrapper trees
    instance = evaluate_view(qbk_view, qbk_store)
    book = locate(qbk_store.get("bkInf.xml"), ("book",))[0]
    auths = locate(book, ("auths",))[0]
    holders = [
        e
        for e in instance.tree.children
        if any(value_equal(c, auths) for c in e.children)
    ]
    assert len(holders) == 2
    assert all(string_value(locate(e, ("title",))[0]) == "IS" for e in holders)


def test_duplication_law_on_generated_fixtures():
    rng = random.Random(5)
    for gen in (gen_t1, gen_t2):
        for _ in range(10):
            case = gen(rng)
            instance = evaluate_view(case.view, case.store)
            assert len(instance.tree.children) == len(instance.tuples)
            for etree, tup in zip(instance.tree.children, instance.tuples):
                # each satisfying tuple contributes one copy per located tree,
                # return-expression order outer, document order inner
                located = [
                    n for ret in case.view.returns for n in locate(tup[ret.var], ret.gamma)
                ]
                assert len(etree.children) == len(located)
                assert all(value_equal(c, n) for c, n in zip(etree.children, located))


def _reference_instance(view, store) -> str:
    """Independent oracle: evaluate by direct string assembly, no tree copies."""
    from xview.xml_model import serialize

    out = [f"<{view.view_root}>"]
    wrote = False
    for tup in _brute_force_tuples(view, store):
        satisfied = True
        for atom in view.conditions:
            lvals = {
                string_value(n) for n in locate(tup[atom.lhs[0]], atom.lhs[1])
            }
            if hasattr(atom, "value"):
                satisfied = atom.value in lvals
            else:
                rvals = {
                    string_value(n) for n in locate(tup[atom.rhs[0]], atom.rhs[1])
                }
                satisfied = bool(lvals & rvals)
            if not satisfied:
                break
        if not satisfied:
            continue
        wrote = True
        out.append(f"<{view.wrapper}>")
        for ret in view.returns:
            for node in locate(tup[ret.var], ret.gamma):
                out.append(serialize(node))
        out.append(f"</{view.wrapper}>")
    if not wrote:
        return f"<{view.view_root}/>"
    out.append(f"</{view.view_root}>")
    return "".join(out).replace(f"<{view.wrapper}></{view.wrapper}>", f"<{view.wrapper}/>")


def test_evaluator_matches_reference_on_generated_views():
    rng = random.Random(8)
    for gen in (gen_t1, gen_t2):
        for _ in range(15):
            case = gen(rng)
            instance = evaluate_view(case.view, case.store)
            assert serialize(instance.tree) == _reference_instance(case.view, case.store)


def test_evaluator_matches_reference_on_example(d1_store, ex1_view):
    instance = evaluate_view(ex1_view, d1_store)
    assert serialize(instance.tree) == _reference_instance(ex1_view, d1_store)


def test_evaluation_is_deterministic(qbk_view, qbk_store):
    first = evaluate_view(qbk_view, qbk_store)
    second = evaluate_view(qbk_view, qbk_store)
    assert serialize(first.tree) == serialize(second.tree)


def test_instance_ids_disjoint_from_store(qbk_view, qbk_store):
    instance = evaluate_view(qbk_view, qbk_store)
    store_ids = set()
    for tree in qbk_store.docs.values():
        store_ids.update(n.node_id for n in iter_nodes(tree))
    instance_ids = {n.node_id for n in iter_nodes(instance.tree)}
    assert not store_ids & instance_ids


# Join views whose bound nodes recur across tuples, so that a condition test
# reads a bound node's values once and then reuses them for the pass.
_JOIN_VIEWS = (
    # several K values per side: existential equality
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B where x/K=y/K '
    "return <e>{x/K}{y/N}</e>}</v>",
    # an empty relative path on a text leaf, and a self-join
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/A/K where x/K=y return <e>{x/P}{y}</e>}</v>',
    # an element side holding nested text, and a literal atom after a
    # chained binding
    '<v>{for x in doc("s")/R/A, y in x/K, z in doc("s")/R/B '
    'where y=z/K and x/P="12" return <e>{y}{z/N}</e>}</v>',
    # a whole bound element compared, and two atoms on one side
    '<v>{for x in doc("s")/R/A, p in doc("s")/R/A/P where x/P=p and x/K=p/K '
    "return <e>{x/K}{p}</e>}</v>",
    # a binding relative to another: x's node recurs once per K under it
    '<v>{for x in doc("s")/R/A, y in x/K where x/P=y and y="1" return <e>{x/P}</e>}</v>',
)


def _join_document(rng: random.Random) -> str:
    def keys(k: int) -> str:
        return "".join(f"<K>{rng.choice(['1', '2', '12', ''])}</K>" for _ in range(k))

    a_items = "".join(
        f"<A>{keys(rng.randint(0, 2))}<P>{keys(rng.randint(0, 2))}</P></A>"
        for _ in range(rng.randint(1, 4))
    )
    b_items = "".join(
        f"<B>{keys(rng.randint(0, 2))}<N>n{i}</N></B>" for i in range(rng.randint(1, 4))
    )
    return f"<R>{a_items}{b_items}</R>"


def _single_doc_store(xml: str) -> DocumentStore:
    store = DocumentStore()
    store.add("s", parse_document(xml))
    return store


def test_join_views_match_reference_where_bound_nodes_recur():
    rng = random.Random(12)
    views = [parse_view_def(text) for text in _JOIN_VIEWS]
    shown = [0] * len(views)
    for _ in range(60):
        store = _single_doc_store(_join_document(rng))
        for i, view in enumerate(views):
            instance = evaluate_view(view, store)
            assert serialize(instance.tree) == _reference_instance(view, store)
            shown[i] += len(instance.tuples)
    assert all(shown)  # every view showed rows on some document


def test_condition_test_reads_values_afresh_after_an_edit():
    # each evaluation is its own pass: values read before an edit are not
    # reused after it, although the edited nodes keep their identity
    view = parse_view_def(_JOIN_VIEWS[0])
    store = _single_doc_store(
        "<R><A><K>1</K><P/></A><A><K>2</K><P/></A>"
        "<B><K>2</K><N>n0</N></B><B><K>3</K><N>n1</N></B></R>"
    )
    assert len(evaluate_view(view, store).tuples) == 1
    apply_update(
        parse_update('for x in doc("s")/R/A where x/K="1" update x { insert <K>3</K> }'),
        store,
    )
    again = evaluate_view(view, store)
    fresh = _single_doc_store(serialize(store.get("s")))
    assert serialize(again.tree) == serialize(evaluate_view(view, fresh).tree)
    assert serialize(again.tree) == _reference_instance(view, fresh)
    assert len(again.tuples) == 2


def test_plan_update_on_a_join_matches_per_tuple_conditions():
    stmt = parse_update(
        'for x in doc("s")/R/A, y in doc("s")/R/B where x/K=y/K and x/P="12" '
        "update x { insert <M>m</M> }"
    )
    rng = random.Random(3)
    planned_any = 0
    for _ in range(60):
        store = _single_doc_store(_join_document(rng))
        expected: list[int] = []
        for tup in enumerate_bindings(stmt.bindings, store):
            if eval_condition(stmt.conditions, tup) and tup["x"].node_id not in expected:
                expected.append(tup["x"].node_id)
        plan = plan_update(stmt, store)
        assert [op.target.node_id for op in plan] == expected
        planned_any += bool(plan)
    assert planned_any


# ----------------------------------------------------------------------
# One locate per distinct context node


def _per_partial_bind_level(binding, partials, store):
    """The reference: ``bind_level`` as it was before it located a path once
    per distinct context node.  A document-rooted path is located once, a
    relative one afresh for every partial tuple."""
    if not partials:
        return []
    source, var = binding.source, binding.var
    relative = isinstance(source.root, VarRoot)
    if relative:
        context, steps = source.root.var, source.steps
    else:
        root = store.get(source.root.doc)
        assert root.label == source.steps[0]
        nodes = locate(root, source.steps[1:])
    expanded = []
    for partial in partials:
        for node in locate(partial[context], steps) if relative else nodes:
            assignment = dict(partial)
            assignment[var] = node
            expanded.append(assignment)
    return expanded


def _bind_level_views():
    """The books join and the views of fuzzgen's cases for seeds 0-19."""
    store = DocumentStore()
    store.add("bkInf.xml", parse_document(BKINF_XML))
    store.add("subjInf.xml", parse_document(SUBJINF_XML))
    yield parse_view_def(QBK_VIEW), store
    for seed in range(20):
        case = random_case(random.Random(seed))
        yield case.view, case.store


def _same_tuples(got, want) -> bool:
    """Equal tuple lists: the same variables in the same order, bound to
    the very same nodes, tuple for tuple."""
    return len(got) == len(want) and all(
        list(g) == list(w) and all(g[k] is w[k] for k in w) for g, w in zip(got, want)
    )


def test_bind_level_matches_the_per_partial_reference():
    levels = 0
    for view, store in _bind_level_views():
        partials = [{}]
        for binding in view.bindings:
            got = bind_level(binding, partials, store)
            want = _per_partial_bind_level(binding, partials, store)
            assert _same_tuples(got, want), binding
            partials, levels = got, levels + 1
    assert levels > 21  # some views have several levels


def test_a_checked_product_builds_and_stops_as_bind_level_does(monkeypatch):
    # y's nodes are the same for every partial: checked by check_product and
    # then built as their product, as a minimality probe builds a restored
    # level, they give bind_level's level, or its error at the same partial
    view = parse_view_def(
        '<v>{for x in doc("s")/R/A, y in doc("s")/R/A return <e>{x}</e>}</v>'
    )
    store = DocumentStore()
    store.add("s", parse_document("<R><A/><A/><A/></R>"))
    first, second = view.bindings
    partials = bind_level(first, [{}], store)
    nodes = locate(store.get("s"), ("A",))

    def outcome(build):
        try:
            return build()
        except TupleBudgetExceeded as err:
            return str(err)

    def product():
        evaluator.check_product(partials, "y", len(nodes))
        return [{**p, "y": n} for p in partials for n in nodes]

    for budget in range(11):
        monkeypatch.setattr(evaluator, "TUPLE_BUDGET", budget)
        got = outcome(product)
        want = outcome(lambda: bind_level(second, partials, store))
        if isinstance(want, str):
            assert got == want, budget
        else:
            assert _same_tuples(got, want), budget
    monkeypatch.setattr(evaluator, "TUPLE_BUDGET", 0)
    evaluator.check_product(partials, "y", 0)  # an empty level fits any budget


def test_bind_level_locates_once_per_distinct_context(monkeypatch):
    calls = []
    real_locate = evaluator.locate

    def counting_locate(ctx, names):
        calls.append(ctx)
        return real_locate(ctx, names)

    monkeypatch.setattr(evaluator, "locate", counting_locate)
    shared = 0  # levels where some context node serves several partials
    for view, store in _bind_level_views():
        partials = [{}]
        for binding in view.bindings:
            root = binding.source.root
            if not partials:
                contexts = []
            elif isinstance(root, VarRoot):
                contexts = [p[root.var] for p in partials]
            else:
                contexts = [store.get(root.doc)]
            distinct = {id(node) for node in contexts}
            calls.clear()
            partials = bind_level(binding, partials, store)
            assert len(calls) == len(distinct), binding
            assert {id(node) for node in calls} == distinct
            shared += len(contexts) > len(distinct)
    assert shared  # the books join's z binding: two unis, eight partials


# ----------------------------------------------------------------------
# Predicate pushdown: each atom tested at the first level binding its
# variables gives the same tuples, in the same order, as testing the whole
# where clause on every enumerated tuple


def _unpruned_satisfying(view, store):
    """The reference: every tuple of the literal nested loops, then the
    whole where clause tested on each."""
    return [
        t for t in _brute_force_tuples(view, store) if eval_condition(view.conditions, t)
    ]


def _ops(plan) -> list[tuple]:
    """A plan as the nodes its ops and edits name, by identity."""
    return [
        (
            id(op.target),
            id(op.parent),
            [(type(e).__name__, e.parent_id, id(e.tree)) for e in op.edits],
        )
        for op in plan
    ]


def _unpruned_plan(stmt, store, monkeypatch):
    """The reference: ``plan_update`` with every tuple enumerated and the
    whole where clause tested on each."""

    def unpruned(bindings, store, atoms):
        every = enumerate_bindings(bindings, store)
        return [t for t in every if eval_condition(atoms, t)]

    with monkeypatch.context() as m:
        m.setattr(updater, "satisfying_tuples", unpruned)
        return plan_update(stmt, store)


def _pushes(atoms, bindings) -> bool:
    """Whether the enumeration tests some atom before the last level."""
    return any(at < len(bindings) - 1 for at in evaluator._by_level(atoms, bindings))


def _outcome(run, *args):
    """What a call gives, or the error it raises."""
    try:
        return run(*args)
    except XviewError as err:
        return type(err), str(err)


def _assert_view_matches(view, store) -> bool:
    """Check ``evaluate_view``'s tuples against the reference; return whether
    the enumeration tested some atom before the last level."""
    got = _outcome(lambda: evaluate_view(view, store).tuples)
    want = _outcome(_unpruned_satisfying, view, store)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _same_tuples(got, want), view
    return _pushes(view.conditions, view.bindings)


def _assert_plan_matches(stmt, store, monkeypatch) -> bool:
    """Check ``plan_update``'s ops against the reference; return whether the
    enumeration tested some atom before the last level."""
    got = _outcome(lambda: _ops(plan_update(stmt, store)))
    want = _outcome(lambda: _ops(_unpruned_plan(stmt, store, monkeypatch)))
    assert got == want, stmt
    return _pushes(stmt.conditions, stmt.bindings)


def test_pushdown_matches_the_unpruned_reference_on_free_statements(monkeypatch):
    from .test_verifier import _free_case

    rng = random.Random(31)
    pushed = 0
    for _ in range(400):
        view_text, update_text, doc = _free_case(rng)
        try:
            view, stmt = parse_view_def(view_text), parse_update(update_text)
        except XviewError:
            continue
        store = _single_doc_store(doc)
        pushed += _assert_view_matches(view, store)
        pushed += _assert_plan_matches(stmt, store, monkeypatch)
    assert pushed > 100


def test_pushdown_matches_the_unpruned_reference_on_fuzz_cases(monkeypatch):
    rng = random.Random(9)
    pushed = 0
    for _ in range(300):
        case = random_case(rng)
        pushed += _assert_view_matches(case.view, case.store)
        out = translate(case.view, case.update)
        if isinstance(out, Translated):
            pushed += _assert_plan_matches(out.statement, case.store, monkeypatch)
    assert pushed > 10


# three bindings: x on level 0, y below it on level 1, z on level 2
_THREE = 'x in doc("s")/R/A, y in x/P, z in doc("s")/R/B'
_THREE_WHERE = (
    'x/K="1"',  # decided at level 0
    'y/K="2"',  # level 1
    'z/K="12"',  # level 2, left to the caller
    "x/K=y/K",  # a join of levels 0 and 1, decided at level 1
    'x/K="1" and y/K="2" and z/K="1"',
    'x/K=y/K and x/K=z/K and y/K="1"',
)
_THREE_UPDATES = (
    "x { insert <M>m</M> }",
    "y { delete K }",
    "z/.. { delete B }",
)


def test_pushdown_matches_the_unpruned_reference_on_three_bindings(monkeypatch):
    rng = random.Random(4)
    levels = set()
    for _ in range(40):
        store = _single_doc_store(_join_document(rng))
        for where in _THREE_WHERE:
            view = parse_view_def(
                f"<v>{{for {_THREE} where {where} return <e>{{x/K}}{{y}}{{z/N}}</e>}}</v>"
            )
            _assert_view_matches(view, store)
            levels.update(evaluator._by_level(view.conditions, view.bindings))
            for update in _THREE_UPDATES:
                stmt = parse_update(f"for {_THREE} where {where} update {update}")
                _assert_plan_matches(stmt, store, monkeypatch)
    assert levels == {0, 1, 2}


def test_pushdown_tests_a_join_of_two_early_levels_at_the_later_one():
    view = parse_view_def(
        f'<v>{{for {_THREE} where x/K=y/K and z/K="1" return <e>{{x}}</e>}}</v>'
    )
    join, literal = view.conditions
    assert evaluator._by_level(view.conditions, view.bindings) == {
        1: [join],
        2: [literal],
    }
    rng = random.Random(5)
    dropped = kept_late = 0
    for _ in range(30):
        store = _single_doc_store(_join_document(rng))
        every = enumerate_bindings(view.bindings, store)
        # x/K=y/K is tested at level 1; z/K="1", decided at the last level,
        # is left to the caller
        joined = [t for t in every if eval_condition(view.conditions[:1], t)]
        got = enumerate_bindings(view.bindings, store, view.conditions)
        assert _same_tuples(got, joined)
        dropped += len(every) - len(joined)
        kept_late += any(not eval_condition(view.conditions[1:], t) for t in got)
    assert dropped and kept_late


def _counting_bind_level(monkeypatch) -> list[tuple[int, int]]:
    """Per ``bind_level`` call, the partial tuples it extends and the
    tuples it builds."""
    levels: list[tuple[int, int]] = []
    real = evaluator.bind_level

    def counting(binding, partials, store):
        tuples = real(binding, partials, store)
        levels.append((len(partials), len(tuples)))
        return tuples

    monkeypatch.setattr(evaluator, "bind_level", counting)
    return levels


def test_a_join_t1_plan_builds_only_the_selected_books_tuples(monkeypatch):
    store = join_session_store()
    view = parse_view_def(QBK_VIEW)
    update = parse_update(
        'for r in view(Qbk)/Qbk/use where r/title="t03" '
        "update r/auths { insert <aName>n1</aName> }"
    )
    out = translate(view, update)
    assert isinstance(out, Translated) and out.case is Case.T1
    levels = _counting_bind_level(monkeypatch)
    plan = plan_update(out.statement, store)
    assert len(plan) == 1
    # 50 books built, 1 kept; its 10 unis; their 200 subjects
    assert levels == [(1, 50), (1, 10), (10, 200)]


def test_a_join_view_still_enumerates_its_cross_product(monkeypatch):
    store = join_session_store()
    enumerated: list[int] = []
    real = evaluator.enumerate_bindings

    def counting(*args):
        tuples = real(*args)
        enumerated.append(len(tuples))
        return tuples

    monkeypatch.setattr(evaluator, "enumerate_bindings", counting)
    levels = _counting_bind_level(monkeypatch)
    instance = evaluate_view(parse_view_def(QBK_VIEW), store)
    assert enumerated == [50 * 200]
    assert levels == [(1, 50), (50, 500), (500, 10_000)]
    assert len(instance.tuples) == 200


def test_a_later_bindings_root_mismatch_is_raised_whatever_the_data(d1_store):
    # the first binding finds nothing, or its atom fails: the second
    # binding's document is still checked
    for first in ('doc("r")/r/Q', 'doc("r")/r/A where x/B="none"'):
        bindings, _, where = first.partition(" where ")
        where = f" where {where}" if where else ""
        view = parse_view_def(
            f'<v>{{for x in {bindings}, y in doc("r")/other/A{where} '
            "return <e>{x}</e>}</v>"
        )
        with pytest.raises(RootLabelMismatch):
            evaluate_view(view, d1_store)
        with pytest.raises(RootLabelMismatch):
            enumerate_bindings(view.bindings, d1_store, view.conditions)


# ----------------------------------------------------------------------
# The join atom tested through a per-pass value index, against a naive
# nested loop


def _naive_satisfying(clause, store):
    """The reference, from the README's data model: every tuple of the
    literal nested loops, in order, kept when each atom holds on it.  A
    path=path atom holds when some subtree located on the left and some on
    the right have equal string values, a path=string atom when some
    located subtree's string value is the literal."""

    def values(tup, side):
        var, names = side
        return [string_value(n) for n in locate(tup[var], names)]

    def holds(atom, tup):
        left = values(tup, atom.lhs)
        if hasattr(atom, "value"):
            return atom.value in left
        return any(a == b for a in left for b in values(tup, atom.rhs))

    return [
        t
        for t in _brute_force_tuples(clause, store)
        if all(holds(atom, t) for atom in clause.conditions)
    ]


_INDEXED_JOINS = (
    # multi-valued sides, sides that locate nothing, duplicate values
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B where x/K=y/K return <e>{y/N}</e>}</v>',
    # the last binding's side on the left
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B where y/K=x/P/K return <e>{y/N}</e>}</v>',
    # a side no node has: nothing is kept
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B where x/Z=y/K return <e>{y/N}</e>}</v>',
    # two join atoms, one side shared
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B where x/K=y/K and x/P/K=y/K '
    "return <e>{y/N}</e>}</v>",
    # a join atom and a literal at the last level
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B where x/K=y/K and y/K="1" '
    "return <e>{y/N}</e>}</v>",
    # both sides on the last binding's variable, beside a join atom
    '<v>{for x in doc("s")/R/A, z in doc("s")/R/A where z/K=z/P/K and x/K=z/K '
    "return <e>{z/P}</e>}</v>",
    # a three-binding chain, the join to the first level
    '<v>{for x in doc("s")/R/A, y in x/P, z in y/K where x/K=z return <e>{z}</e>}</v>',
    # three bindings, the join to the middle level and a pushed-down atom
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B, z in doc("s")/R/A '
    'where x/K="1" and z/P/K=y/K return <e>{y/N}</e>}</v>',
    # three bindings, a join decided at the middle level and a literal at
    # the last
    '<v>{for x in doc("s")/R/A, y in doc("s")/R/B, z in doc("s")/R/A '
    'where x/K=y/K and z/P/K="1" return <e>{y/N}</e>}</v>',
)


def _indexed_join_cases():
    """(clause, store) pairs: the joins above on random documents, the
    bench-sized books join, and the views and translations of T2 cases."""
    rng = random.Random(25)
    views = [parse_view_def(text) for text in _INDEXED_JOINS]
    for _ in range(40):
        store = _single_doc_store(_join_document(rng))
        for view in views:
            yield view, store
    yield parse_view_def(QBK_VIEW), join_session_store()
    for _ in range(30):
        case = gen_t2(rng)
        yield case.view, case.store
        out = translate(case.view, case.update)
        if isinstance(out, Translated):
            yield out.statement, case.store


def test_satisfying_tuples_matches_the_naive_nested_loop():
    # satisfying_tuples on the pushed-down enumeration, and where_holds on
    # the full product, against the same reference
    mismatches = kept = dropped = 0
    for clause, store in _indexed_join_cases():
        got = evaluator.satisfying_tuples(clause.bindings, store, clause.conditions)
        want = _naive_satisfying(clause, store)
        every = _brute_force_tuples(clause, store)
        flags = evaluator.where_holds(clause.bindings, clause.conditions)(every)
        held = [t for t, holds in zip(every, flags) if holds]
        mismatches += not _same_tuples(got, want)
        mismatches += not _same_tuples(held, want)
        kept += len(want)
        dropped += len(every) - len(want)
    assert mismatches == 0
    assert kept and dropped


def test_a_join_pass_reads_each_bound_nodes_side_once(monkeypatch):
    reads = []
    real_string_value = evaluator.string_value

    def counting(node):
        reads.append(node)
        return real_string_value(node)

    monkeypatch.setattr(evaluator, "string_value", counting)
    rng = random.Random(26)
    cases = [(parse_view_def(QBK_VIEW), join_session_store())]
    view = parse_view_def(_INDEXED_JOINS[0])
    cases += [(view, _single_doc_store(_join_document(rng))) for _ in range(20)]
    counts = []
    for view, store in cases:
        (atom,) = view.conditions
        every = enumerate_bindings(view.bindings, store)
        expected = 0
        for var, names in (atom.lhs, atom.rhs):
            for node in {id(t[var]): t[var] for t in every}.values():
                expected += len(locate(node, names))
        reads.clear()
        evaluator.satisfying_tuples(view.bindings, store, view.conditions)
        assert len(reads) == expected
        counts.append(expected)
    # the books join: 200 subject titles and 50 book titles, not one per tuple
    assert counts[0] == 250


def test_join_atoms_sharing_a_side_read_it_once_per_atom(monkeypatch):
    # each join atom indexes its own sides: a (node, side) pair is read at
    # most once per join atom that reads the side, so y/K, which both atoms
    # read, at most twice per node, and every other side once
    sides = []
    real_located_values = evaluator._located_values

    def recording(node, names):
        sides.append((node, names))
        return real_located_values(node, names)

    monkeypatch.setattr(evaluator, "_located_values", recording)
    view = parse_view_def(_INDEXED_JOINS[3])  # x/K=y/K and x/P/K=y/K
    readers = collections.Counter(
        side for atom in view.conditions for side in atom_sides(atom)
    )
    assert readers == {("y", ("K",)): 2, ("x", ("K",)): 1, ("x", ("P", "K")): 1}
    var_of = {"A": "x", "B": "y"}  # the labels the two bindings reach
    rng = random.Random(27)
    twice = 0
    for _ in range(20):
        store = _single_doc_store(_join_document(rng))
        sides.clear()
        evaluator.satisfying_tuples(view.bindings, store, view.conditions)
        for (node, names), reads in collections.Counter(sides).items():
            assert reads <= readers[var_of[node.label], names]
            twice += reads == 2
    assert twice


def test_joins_before_and_at_the_last_level_read_each_side_once(monkeypatch):
    # the join to the middle level, decided at the last level after a
    # pushed-down literal, and a join decided at the middle level before a
    # literal at the last: each pass reads a join side once per node that
    # its tuples bind, whether satisfying_tuples runs it on the enumeration
    # or where_holds on the full product
    sides = []
    real_located_values = evaluator._located_values

    def recording(node, names):
        sides.append((id(node), names))
        return real_located_values(node, names)

    monkeypatch.setattr(evaluator, "_located_values", recording)
    rng = random.Random(28)
    read = 0
    for text in _INDEXED_JOINS[7:9]:
        view = parse_view_def(text)
        literals = [a for a in view.conditions if isinstance(a, PathEqString)]
        (join,) = [a for a in view.conditions if a not in literals]
        for _ in range(20):
            store = _single_doc_store(_join_document(rng))
            reaching = enumerate_bindings(view.bindings, store, literals)
            expected = {
                (id(t[var]), names) for t in reaching for var, names in atom_sides(join)
            }
            sides.clear()
            evaluator.satisfying_tuples(view.bindings, store, view.conditions)
            assert len(sides) == len(set(sides)) and set(sides) == expected
            sides.clear()
            every = enumerate_bindings(view.bindings, store)
            evaluator.where_holds(view.bindings, view.conditions)(every)
            assert len(sides) == len(set(sides)) and set(sides) == expected
            read += len(expected)
    assert read


def test_a_pass_decides_other_atoms_once_per_node(monkeypatch):
    # a literal on the books join's subjects, beside the join atom or alone:
    # eval_condition decides it once per subject (200), not once per tuple
    # that reaches it (200 beside the join, which goes through the index,
    # and 10,000 alone), both in an evaluation and in where_holds over the
    # whole product
    store = join_session_store()
    calls = []
    real = evaluator.eval_condition

    def counting(atoms, tup):
        calls[-1] += 1
        return real(atoms, tup)

    monkeypatch.setattr(evaluator, "eval_condition", counting)
    clauses = (('x/title=z/title and z/title="t03"', 4), ('z/title="t03"', 200))
    for where, rows in clauses:
        view = parse_view_def(QBK_VIEW.replace("x/title=z/title", where))
        every = enumerate_bindings(view.bindings, store)
        calls.append(0)
        assert len(evaluate_view(view, store).tuples) == rows
        calls.append(0)
        holds = evaluator.where_holds(view.bindings, view.conditions)
        assert sum(holds(every)) == rows
    assert calls == [200] * 4


def _one_and_two_name_paths(store: DocumentStore) -> list[tuple[str, ...]]:
    """Every one-name path over the labels of ``store``, every two-name path
    that locates a node somewhere in it, and one two-name path that locates
    none anywhere, standing for the others: those go through ``locate`` in
    every reader, whatever the node."""
    nodes = [n for t in store.docs.values() for n in iter_nodes(t)]
    labels = sorted({n.label for n in nodes})
    pairs = {(n.label, c.label) for n in nodes for c in n.children or ()}
    nowhere = ("absent", "absent")
    return [(a,) for a in labels] + sorted(pairs) + [nowhere]


def test_one_name_reads_match_locate_on_fuzz_stores():
    # row_trees and eval_condition read a one-name path off the binding's
    # children in place.  On every node of the stores of fuzz seeds 0-4 x
    # 200, with the store's paths: row_trees locates what locate does,
    # expression order outer, and a path=string atom holds exactly for the
    # string values of the subtrees locate reaches, tried against those,
    # the node's children's and one that no node holds
    checked = 0
    for seed in range(5):
        rng = random.Random(seed)
        for _ in range(200):
            store = random_case(rng).store
            paths = _one_and_two_name_paths(store)
            returns = [ReturnExpr("x", ()), *(ReturnExpr("x", p) for p in paths)]
            for root in store.docs.values():
                for node in iter_nodes(root):
                    tup = {"x": node}
                    located = [locate(node, p) for p in paths]
                    expected = [node, *itertools.chain.from_iterable(located)]
                    got = row_trees(returns, tup)
                    assert len(got) == len(expected)
                    assert all(map(operator.is_, got, expected))
                    near = {"absent", *map(string_value, node.children or ())}
                    for path, found in zip(paths, located):
                        values = set(map(string_value, found))
                        for value in values | near:
                            atom = PathEqString(("x", path), value)
                            held = eval_condition([atom], tup)
                            assert held == (value in values)
                            checked += 1
    assert checked > 500_000
