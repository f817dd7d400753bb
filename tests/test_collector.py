"""The cyclic garbage collector around the calls that enumerate tuples.

``evaluate_view``, ``apply_update`` and ``verify_translation`` hold the
collector off while they run and then leave it as they found it.  That is
safe only while the package makes no reference cycles, so the first test
pins that premise: a later parent link or self-referencing closure would
fail it, rather than leak while collection is deferred.
"""

from __future__ import annotations

import contextlib
import gc
import io

import pytest

from xview import cli, evaluator, updater, verifier
from xview.errors import QuerySyntaxError, TargetIsRoot, UnknownDocument, XviewError
from xview.evaluator import evaluate_view
from xview.lang import parse_update, parse_view_def
from xview.translator import Case, Rejected, Translated, translate
from xview.updater import apply_update
from xview.verifier import verify_translation
from xview.xml_model import DocumentStore, parse_document

from .conftest import QBK_DS_PRINTED, QBK_DV, QBK_VIEW, join_session_store

DELETE_VIEW = '<v>{for x1 in doc("d")/R/A return <e>{x1/C}{x1/T}</e>}</v>'
DELETE_UPDATE = 'for u in v where u/e/C="1" update u ( delete e )'
ROOT_DELETION = 'for x in doc("d")/r where x/A="1" update x/.. ( delete r )'
LABEL_DELETION = 'for x in doc("d")/r where x/A="1" update x { delete A }'


@contextlib.contextmanager
def _collector(on: bool):
    """Run the body with the collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _join_update(title: str, target: str, kind: str, tree: str):
    return parse_update(
        f'for r in view(Qbk)/Qbk/use where r/title="{title}" '
        f"update {target} {{ {kind} {tree} }}"
    )


def _deletion_store(items: int) -> DocumentStore:
    body = "".join(
        f"<A><C>{1 + i % 2}</C><T><W>w{i}</W></T></A>" for i in range(items)
    )
    store = DocumentStore()
    store.add("d", parse_document(f"<R>{body}</R>"))
    return store


def _every_kind_of_call() -> None:
    """Evaluations, updates, a verify, a rejection, a fuzz batch and one
    raising call per error family."""
    view = parse_view_def(QBK_VIEW)
    store = join_session_store()
    evaluate_view(view, store)
    for target, tree, case in (
        ("r/auths", "<aName>n1</aName>", Case.T1),
        ("r/profs", "<pName>n2</pName>", Case.T2),
    ):
        for kind in ("insert", "delete"):
            out = translate(view, _join_update("t03", target, kind, tree))
            assert isinstance(out, Translated) and out.case is case
            assert apply_update(out.statement, store)
            evaluate_view(view, store, copy_rows=False)

    dview = parse_view_def(DELETE_VIEW)
    dupdate = parse_update(DELETE_UPDATE)
    out = translate(dview, dupdate)
    assert isinstance(out, Translated) and out.case is Case.T4
    store = _deletion_store(160)
    assert verify_translation(dview, dupdate, out.statement, store, out.case).passed

    rejected = _join_update("t03", "r/title", "insert", "<w>1</w>")
    assert isinstance(translate(view, rejected), Rejected)

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fuzz", "--seed", "7", "--count", "300"]) == 0

    try:
        parse_update("for r in")
    except QuerySyntaxError:
        pass
    try:
        evaluate_view(view, DocumentStore())
    except UnknownDocument:
        pass
    root = DocumentStore()
    root.add("d", parse_document("<r><A>1</A></r>"))
    try:
        apply_update(parse_update(ROOT_DELETION), root)
    except TargetIsRoot:
        pass


def test_the_package_makes_no_reference_cycles():
    cli._parser()  # argparse's own cycles, made once per process
    gc.collect()
    with _collector(False):
        _every_kind_of_call()
        assert gc.collect() == 0


# Each deferred call, a run of it that succeeds and one that raises, and the
# module-level callee through which the test sees the collector mid-call.

def _evaluate(raises: bool):
    view = parse_view_def(QBK_VIEW)
    store = DocumentStore() if raises else join_session_store()
    return lambda: evaluate_view(view, store)


def _apply(raises: bool):
    store = DocumentStore()
    store.add("d", parse_document("<r><A>1</A></r>"))
    stmt = parse_update(ROOT_DELETION if raises else LABEL_DELETION)
    return lambda: apply_update(stmt, store)


def _verify(raises: bool):
    view, dv = parse_view_def(QBK_VIEW), parse_update(QBK_DV)
    ds = parse_update(QBK_DS_PRINTED)
    store = DocumentStore() if raises else join_session_store()
    return lambda: verify_translation(view, dv, ds, store)


CALLS = {
    "evaluate_view": (_evaluate, evaluator, "satisfying_tuples"),
    "apply_update": (_apply, updater, "plan_update"),
    "verify_translation": (_verify, verifier, "_compute_routes"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("was_on", [True, False], ids=["on", "off"])
def test_each_call_restores_the_collector_it_found(monkeypatch, name, raises, was_on):
    make, module, callee = CALLS[name]
    call = make(raises)
    seen: list[bool] = []
    real = getattr(module, callee)

    def watching(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, callee, watching)
    with _collector(was_on):
        if raises:
            with pytest.raises(XviewError):
                call()
        else:
            call()
        assert gc.isenabled() is was_on
    assert seen == [False]


def test_a_nested_evaluation_leaves_the_collector_off(monkeypatch):
    # verify_translation evaluates the view itself; the inner call must
    # not switch the collector back on before the outer one returns
    after_inner: list[bool] = []
    real = verifier.evaluate_view

    def evaluating(*args, **kwargs):
        instance = real(*args, **kwargs)
        after_inner.append(gc.isenabled())
        return instance

    monkeypatch.setattr(verifier, "evaluate_view", evaluating)
    with _collector(True):
        assert _verify(False)().passed
        assert gc.isenabled()
    assert after_inner == [False]


def test_a_join_evaluation_sets_off_no_collection():
    # at 10,000 binding tuples, a join evaluation with the collector
    # running sets off about 17 young collections; the documents held here
    # make a full collection walk a large heap
    held = [join_session_store() for _ in range(50)]
    view, store = parse_view_def(QBK_VIEW), join_session_store()
    starts = [0]

    def count(phase, _info):
        if phase == "start":
            starts[0] += 1

    with _collector(True):
        gc.collect()
        gc.callbacks.append(count)
        try:
            instance = evaluate_view(view, store)
        finally:
            gc.callbacks.remove(count)
    assert len(instance.tuples) == 200 and len(held) == 50
    assert starts == [0]
