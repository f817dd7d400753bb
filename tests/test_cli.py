"""Command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

from xview import cli, verifier, xml_model
from xview.cli import main
from xview.lang import parse_update
from xview.xml_model import parse_document, serialize, value_equal
from .conftest import (
    BKINF_XML,
    D1_XML,
    EX1_VIEW,
    QBK_DS_NO_COND,
    QBK_DS_PADDED,
    QBK_DS_PRINTED,
    QBK_DV,
    QBK_VIEW,
    SUBJINF_XML,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in {
        "d1.xml": D1_XML,
        "ex1.xq": EX1_VIEW,
        "bkInf.xml": BKINF_XML,
        "subjInf.xml": SUBJINF_XML,
        "books_view.xq": QBK_VIEW,
        "add_author.xq": QBK_DV,
        "delta_s.xq": QBK_DS_PRINTED,
        "padded.xq": QBK_DS_PADDED,
    }.items():
        p = tmp_path / name
        p.write_text(content, encoding="utf-8")
        paths[name] = str(p)
    return paths


def _books_doc_args(files):
    return [
        "--doc",
        f"bkInf.xml={files['bkInf.xml']}",
        "--doc",
        f"subjInf.xml={files['subjInf.xml']}",
    ]


def test_eval_d1(files, capsys):
    code = main(["eval", "--view", files["ex1.xq"], "--doc", f"r={files['d1.xml']}"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == (
        "<v><e><B>b1</B><C><D>1</D><F><G>g1</G></F></C>"
        "<C><D>2</D></C><G>g1</G><H>1</H></e></v>"
    )


def test_eval_json_format(files, capsys):
    code = main(
        [
            "eval",
            "--view",
            files["ex1.xq"],
            "--doc",
            f"r={files['d1.xml']}",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["view"].startswith("<v>")


def test_eval_missing_doc_binding(files, capsys):
    code = main(["eval", "--view", files["ex1.xq"]])
    assert code == 4
    assert "r" in capsys.readouterr().err


def test_eval_parse_error(files, tmp_path, capsys):
    bad = tmp_path / "bad.xq"
    bad.write_text("not a view", encoding="utf-8")
    assert main(["eval", "--view", str(bad)]) == 3


@pytest.mark.parametrize(
    "action",
    [
        "{ insert <D/><E/> }",
        "{ insert <D/> junk }",
        "{ insert <!--c--><D/> }",
        "{ insert <D/>",
    ],
    ids=["two-roots", "junk-after-root", "comment-first", "no-closing-brace"],
)
def test_malformed_payload_exits_with_parse_error(tmp_path, capsys, action):
    update = tmp_path / "bad.xq"
    update.write_text(
        f'for x in doc("d")/r/A where x/B="1" update x/C {action}', encoding="utf-8"
    )
    assert main(["apply", "--update", str(update)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval"],
        ["fuzz", "--seed", "x", "--count", "1"],
        ["fuzz", "--seed", "1", "--count", "-3"],
        ["bogus"],
    ],
    ids=["missing-option", "bad-option-value", "negative-count", "unknown-command"],
)
def test_usage_error_exits_with_parse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_malformed_doc_binding(files, capsys):
    code = main(["eval", "--view", files["ex1.xq"], "--doc", "nopath"])
    assert code == 4
    assert "name=path" in capsys.readouterr().err


def test_duplicate_doc_binding(files, capsys):
    code = main(
        [
            "eval",
            "--view",
            files["ex1.xq"],
            "--doc",
            f"r={files['d1.xml']}",
            "--doc",
            f"r={files['d1.xml']}",
        ]
    )
    assert code == 4


def test_translate_books(files, capsys):
    code = main(
        ["translate", "--view", files["books_view.xq"], "--update", files["add_author.xq"]]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert parse_update(out) == parse_update(QBK_DS_PRINTED)


def test_translate_wrapper_insert_rejected(files, tmp_path, capsys):
    upd = tmp_path / "wins.xq"
    upd.write_text(
        'for r in view(Qbk)/Qbk/use where r/title="IS" update r { insert <zzz>1</zzz> }',
        encoding="utf-8",
    )
    code = main(
        ["translate", "--view", files["books_view.xq"], "--update", str(upd)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload == {
        "translatable": False,
        "reason": "InsertionAtWrapperOrRoot",
        "detail": payload["detail"],
    }


def test_translate_unmappable_condition(files, tmp_path, capsys):
    upd = tmp_path / "u.xq"
    upd.write_text(
        'for r in Qbk/use where r/nothing="1" update r/auths { delete aName }',
        encoding="utf-8",
    )
    code = main(["translate", "--view", files["books_view.xq"], "--update", str(upd)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["reason"] == "UnmappableName"


def test_apply_translated_update(files, capsys):
    code = main(
        ["apply", "--update", files["delta_s.xq"], *_books_doc_args(files), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    updated = parse_document(payload["docs"]["bkInf.xml"])
    first_book = updated.children[0]
    assert "Susan" in serialize(first_book)
    assert len(payload["edits"]) == 1
    assert payload["edits"][0]["op"] == "insert"


def test_apply_no_match_is_identity(files, tmp_path, capsys):
    upd = tmp_path / "noop.xq"
    upd.write_text(
        'for x in doc("bkInf.xml")/bkInf/book where x/title="ZZZ" '
        "update x/auths { insert <aName>N</aName> }",
        encoding="utf-8",
    )
    code = main(["apply", "--update", str(upd), *_books_doc_args(files), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["edits"] == []
    assert value_equal(
        parse_document(payload["docs"]["bkInf.xml"]), parse_document(BKINF_XML)
    )


def test_apply_rejects_view_level_update(files, capsys):
    code = main(["apply", "--update", files["add_author.xq"], *_books_doc_args(files)])
    assert code == 3


def test_apply_writes_edit_log(files, tmp_path):
    log_path = tmp_path / "edits.jsonl"
    code = main(
        [
            "apply",
            "--update",
            files["delta_s.xq"],
            *_books_doc_args(files),
            "--edits",
            str(log_path),
        ]
    )
    assert code == 0
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"op", "parent", "tree"}


def test_verify_books(files, capsys):
    code = main(
        [
            "verify",
            "--view",
            files["books_view.xq"],
            "--update",
            files["add_author.xq"],
            *_books_doc_args(files),
            "--format",
            "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["correct"] and report["minimal"]
    assert report["case"] == "T1"
    assert report["lemmas"] == {"L1": True, "L2": True, "L3": True}


def test_verify_with_padded_override(files, capsys, monkeypatch):
    # node ids restart at 1, as in a fresh process, so the witness's parent
    # id is the one `xview verify` prints
    monkeypatch.setattr(xml_model, "_COUNTER", itertools.count(1))
    code = main(
        [
            "verify",
            "--view",
            files["books_view.xq"],
            "--update",
            files["add_author.xq"],
            *_books_doc_args(files),
            "--delta-s",
            files["padded.xq"],
            "--format",
            "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 5
    assert report["correct"] and not report["minimal"]
    # the insertion under the fourth book's auths, which no subject references
    assert report["witness"] == {
        "op": "insert",
        "parent": 17,
        "tree": "<aName>Susan</aName>",
    }


def test_verify_delta_s_rejects_a_source_level_update_first(files, capsys):
    # the view update's level is checked before anything else reads it
    code = main(
        [
            "verify",
            "--view",
            files["books_view.xq"],
            "--update",
            files["padded.xq"],
            *_books_doc_args(files),
            "--delta-s",
            files["delta_s.xq"],
        ]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: a source-level update applies to a DocumentStore\n"


def test_verify_rejected_update(files, tmp_path, capsys):
    upd = tmp_path / "w.xq"
    upd.write_text(
        'for r in Qbk/use where r/title="IS" update r { insert <zzz>1</zzz> }',
        encoding="utf-8",
    )
    code = main(
        [
            "verify",
            "--view",
            files["books_view.xq"],
            "--update",
            str(upd),
            *_books_doc_args(files),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["translatable"] is False


def test_verify_text_format(files, capsys, monkeypatch):
    code = main(
        ["verify", "--view", files["books_view.xq"], "--update", files["add_author.xq"]]
        + _books_doc_args(files)
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "correct: true\n"
        "minimal: true\n"
        "case: T1\n"
        "lemmas: L1=pass L2=pass L3=pass\n"
    )
    # a hand-written statement: no case and no lemmas, but the witness
    monkeypatch.setattr(xml_model, "_COUNTER", itertools.count(1))
    code = main(
        ["verify", "--view", files["books_view.xq"], "--update", files["add_author.xq"]]
        + _books_doc_args(files)
        + ["--delta-s", files["padded.xq"]]
    )
    assert code == 5
    assert capsys.readouterr().out == (
        "correct: true\n"
        "minimal: false\n"
        'witness: {"op": "insert", "parent": 17, "tree": "<aName>Susan</aName>"}\n'
    )


def test_verify_text_format_reports_the_diff(files, tmp_path, capsys):
    no_cond = tmp_path / "no_cond.xq"
    no_cond.write_text(QBK_DS_NO_COND, encoding="utf-8")
    code = main(
        ["verify", "--view", files["books_view.xq"], "--update", files["add_author.xq"]]
        + _books_doc_args(files)
        + ["--delta-s", str(no_cond)]
    )
    assert code == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["correct: false", "minimal: false"]
    assert len(lines) == 3 and lines[2].startswith("diff: ")
    assert set(json.loads(lines[2][len("diff: ") :])) == {"path", "left", "right"}


def test_verify_exits_5_when_a_lemma_fails(capsys, monkeypatch):
    # precise, but L3 fails: the verdict is a verification failure
    monkeypatch.setattr(verifier, "_lemma3", lambda routes: False)
    code = main(
        [
            "verify",
            "--view",
            str(DEMO / "books_view.xq"),
            "--update",
            str(DEMO / "add_author.xq"),
            "--doc",
            f"bkInf.xml={DEMO / 'bkInf.xml'}",
            "--doc",
            f"subjInf.xml={DEMO / 'subjInf.xml'}",
        ]
    )
    out = capsys.readouterr().out
    assert code == 5
    assert out.splitlines()[:2] == ["correct: true", "minimal: true"]
    assert out.endswith("lemmas: L1=pass L2=pass L3=FAIL\n")


def test_verify_delta_s_must_be_source_level(files, capsys):
    code = main(
        ["verify", "--view", files["books_view.xq"], "--update", files["add_author.xq"]]
        + _books_doc_args(files)
        + ["--delta-s", files["add_author.xq"]]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: --delta-s expects a source-level update\n"


def test_translate_json_format(files, capsys):
    code = main(
        [
            "translate",
            "--view",
            files["books_view.xq"],
            "--update",
            files["add_author.xq"],
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(payload) == ["translatable", "case", "delta_s"]
    assert payload["translatable"] is True and payload["case"] == "T1"
    assert parse_update(payload["delta_s"]) == parse_update(QBK_DS_PRINTED)


def test_fuzz_counts_a_case_whose_expectation_differs(capsys, monkeypatch):
    make = cli.random_case

    def mislabelled(rng):
        case = make(rng)
        return dataclasses.replace(case, expect="reject:" + case.expect)

    monkeypatch.setattr(cli, "random_case", mislabelled)
    assert main(["fuzz", "--seed", "7", "--count", "1"]) == 5
    assert capsys.readouterr().out.splitlines()[-1] == "failures: 1"


def test_fuzz_deterministic(capsys):
    assert main(["fuzz", "--seed", "7", "--count", "200"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "--seed", "7", "--count", "200"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "failures: 0" in first
    # the histogram spans every translation case and rejection families
    for key in ("T1:", "T2:", "T3:", "T4:", "Rejected("):
        assert key in first


def test_fuzz_zero_count(capsys):
    assert main(["fuzz", "--seed", "1", "--count", "0"]) == 0
    assert capsys.readouterr().out.strip() == "failures: 0"


def test_output_file(files, tmp_path):
    out = tmp_path / "result.xml"
    code = main(
        [
            "eval",
            "--view",
            files["ex1.xq"],
            "--doc",
            f"r={files['d1.xml']}",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("<v>")


def test_fuzz_seed_7_histogram_is_pinned(capsys):
    assert main(["fuzz", "--seed", "7", "--count", "1000"]) == 0
    assert capsys.readouterr().out == (
        "T1: 116\n"
        "T2: 112\n"
        "T3: 103\n"
        "T4: 104\n"
        "Rejected(CondTargetDifferentVarsNoJoin): 127\n"
        "Rejected(NoSpecifiableCondition): 110\n"
        "Rejected(NoUniqueSourcePlacement): 101\n"
        "Rejected(TargetPrefixOfWherePath): 109\n"
        "Rejected(ViolatesProduction): 118\n"
        "failures: 0\n"
    )


def test_fuzz_seed_3_histogram_is_pinned(capsys):
    assert main(["fuzz", "--seed", "3", "--count", "3000"]) == 0
    assert capsys.readouterr().out == (
        "T1: 326\n"
        "T2: 349\n"
        "T3: 341\n"
        "T4: 359\n"
        "Rejected(CondTargetDifferentVarsNoJoin): 323\n"
        "Rejected(NoSpecifiableCondition): 335\n"
        "Rejected(NoUniqueSourcePlacement): 309\n"
        "Rejected(TargetPrefixOfWherePath): 313\n"
        "Rejected(ViolatesProduction): 345\n"
        "failures: 0\n"
    )


def test_fuzz_seed_11_histogram_is_pinned(capsys):
    assert main(["fuzz", "--seed", "11", "--count", "1000"]) == 0
    assert capsys.readouterr().out == (
        "T1: 122\n"
        "T2: 101\n"
        "T3: 116\n"
        "T4: 95\n"
        "Rejected(CondTargetDifferentVarsNoJoin): 104\n"
        "Rejected(NoSpecifiableCondition): 110\n"
        "Rejected(NoUniqueSourcePlacement): 118\n"
        "Rejected(TargetPrefixOfWherePath): 106\n"
        "Rejected(ViolatesProduction): 128\n"
        "failures: 0\n"
    )


DEMO = Path(__file__).resolve().parent.parent / "demo"


def test_readme_demo_commands(capsys):
    books = [
        "--doc",
        f"bkInf.xml={DEMO / 'bkInf.xml'}",
        "--doc",
        f"subjInf.xml={DEMO / 'subjInf.xml'}",
    ]
    books_update = [
        "--view",
        str(DEMO / "books_view.xq"),
        "--update",
        str(DEMO / "add_author.xq"),
    ]
    view = ["--view", str(DEMO / "view.xq")]
    assert main(["eval", *view, "--doc", f"r={DEMO / 'd1.xml'}"]) == 0
    assert capsys.readouterr().out.startswith("<v>")

    assert main(["translate", *books_update]) == 0
    assert parse_update(capsys.readouterr().out) == parse_update(QBK_DS_PRINTED)

    assert main(["verify", *books_update, *books, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "T1" and report["correct"] and report["minimal"]

    assert main(["translate", *view, "--update", str(DEMO / "drop_refs.xq")]) == 2
    assert json.loads(capsys.readouterr().out)["reason"] == "OverlappingExposure"


def test_deeply_nested_document_evaluates(tmp_path, capsys):
    # far past the interpreter's recursion limit: evaluation copies the
    # chain and serializes it without recursing
    depth = 3000
    doc = tmp_path / "deep.xml"
    doc.write_text("<R><A>" + "<B>" * depth + "</B>" * depth + "</A></R>", encoding="utf-8")
    view = tmp_path / "deep.xq"
    view.write_text('<v>{for x in doc("d")/R/A return <e>{x}</e>}</v>', encoding="utf-8")
    code = main(["eval", "--view", str(view), "--doc", f"d={doc}"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    chain = "<B>" * (depth - 1) + "<B/>" + "</B>" * (depth - 1)
    assert captured.out == f"<v><e><A>{chain}</A></e></v>\n"


def test_unbound_document_is_reported_although_an_earlier_atom_fails(
    tmp_path, capsys
):
    # x/C="9" fails on the only A, so no tuple reaches y; the unbound
    # document behind y is an error all the same
    doc = tmp_path / "d.xml"
    doc.write_text("<R><A><C>1</C></A></R>", encoding="utf-8")
    view = tmp_path / "v.xq"
    view.write_text(
        '<v>{for x in doc("d")/R/A, y in doc("q")/Q/B where x/C="9" '
        "return <e>{x/C}</e>}</v>",
        encoding="utf-8",
    )
    code = main(["eval", "--view", str(view), "--doc", f"d={doc}"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: no document bound to 'q'\n"


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_exhausted_interpreter_exits_with_eval_error(
    error, files, capsys, monkeypatch
):
    def exhausted(_args):
        raise error()

    monkeypatch.setattr(cli, "cmd_eval", exhausted)
    code = main(["eval", "--view", files["ex1.xq"], "--doc", f"d1={files['d1.xml']}"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_readme_library_block_runs(capsys, monkeypatch):
    readme = (DEMO.parent / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library") :]
    library = library[: library.index("\n## ", 1)]
    (block,) = re.findall(r"```python\n(.*?)```", library, re.S)
    monkeypatch.chdir(DEMO.parent)
    scope: dict = {}
    exec(block, scope)
    report = scope["report"]
    assert report.passed and scope["edits"]
    assert capsys.readouterr().out == f"{report.to_json()}\n"
