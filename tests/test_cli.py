"""Command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

from xview import cli, evaluator, verifier, xml_model
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
        ["fuzz", "--seed", "1", "--count", "1", "--format", "json"],
        ["bogus"],
    ],
    ids=[
        "missing-option",
        "bad-option-value",
        "negative-count",
        "fuzz-has-no-format",
        "unknown-command",
    ],
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
    monkeypatch.setattr(verifier, "_lemma3", lambda routes, form: False)
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


def _first_case(make, rejected: bool):
    """A random_case stand-in giving the first case that expects a
    rejection, or the first that does not."""

    def first(rng):
        while True:
            case = make(rng)
            if case.expect.startswith("reject:") == rejected:
                return case

    return first


def test_fuzz_counts_a_rejection_for_another_reason(capsys, monkeypatch):
    first = _first_case(cli.random_case, rejected=True)
    monkeypatch.setattr(
        cli,
        "random_case",
        lambda rng: dataclasses.replace(first(rng), expect="reject:NoSuchReason"),
    )
    assert main(["fuzz", "--seed", "7", "--count", "1"]) == 5
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("Rejected(") and out[-1] == "failures: 1"


def test_fuzz_counts_a_translation_that_fails_verification(capsys, monkeypatch):
    verify = cli.verify_translation
    monkeypatch.setattr(cli, "random_case", _first_case(cli.random_case, False))
    monkeypatch.setattr(
        cli,
        "verify_translation",
        lambda *args: dataclasses.replace(verify(*args), correct=False),
    )
    assert main(["fuzz", "--seed", "7", "--count", "1"]) == 5
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("T") and out[-1] == "failures: 1"


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


# each command and format, on the demos, byte for byte, exit code included
EVAL_D1 = (
    "<v><e><B>b1</B><C><D>1</D><F><G>g1</G></F></C><C><D>2</D></C>"
    "<G>g1</G><H>1</H></e></v>"
)
BOOKS_DS = (
    'for x in doc("bkInf.xml")/bkInf/book, y in doc("subjInf.xml")/subjInf/uni, '
    'z in y/subjs/subj\nwhere x/title=z/title and x/title="IS"\n'
    "update x/auths { insert <aName>Susan</aName> }"
)
DROP_REFS_REJECTED = (
    '{"translatable": false, "reason": "OverlappingExposure", "detail": "path '
    "r/A/C/F/G is a prefix or an extension of another return expression's "
    'path"}\n'
)
MIN_APPLIED = "<R><A><C>1</C><D>d</D><T/></A><A><C>2</C><D>d</D><T/></A></R>"
MIN_EDITS = (
    '{"op": "delete", "parent": 4, "tree": "<U>u</U>"}\n'
    '{"op": "delete", "parent": 9, "tree": "<U>u</U>"}\n'
)
BOOKS = "--doc bkInf.xml=demo/bkInf.xml --doc subjInf.xml=demo/subjInf.xml"
MIN_DELTA_S = (
    "--view demo/min_view.xq --update demo/min_update.xq --doc s=demo/min.xml "
    "--delta-s demo/min_unneeded.xq"
)
PINNED = {
    "eval-text": (
        "eval --view demo/view.xq --doc r=demo/d1.xml --format text",
        0,
        EVAL_D1 + "\n",
    ),
    "eval-json": (
        "eval --view demo/view.xq --doc r=demo/d1.xml --format json",
        0,
        json.dumps({"view": EVAL_D1}) + "\n",
    ),
    "translate-text": (
        "translate --view demo/books_view.xq --update demo/add_author.xq --format text",
        0,
        BOOKS_DS + "\n",
    ),
    "translate-json": (
        "translate --view demo/books_view.xq --update demo/add_author.xq --format json",
        0,
        '{"translatable": true, "case": "T1", "delta_s": '
        + json.dumps(BOOKS_DS)
        + "}\n",
    ),
    "translate-rejected-text": (
        "translate --view demo/view.xq --update demo/drop_refs.xq --format text",
        2,
        DROP_REFS_REJECTED,
    ),
    "translate-rejected-json": (
        "translate --view demo/view.xq --update demo/drop_refs.xq --format json",
        2,
        DROP_REFS_REJECTED,
    ),
    "apply-edits-text": (
        "apply --update demo/min_unneeded.xq --doc s=demo/min.xml --edits EDITS "
        "--format text",
        0,
        f"# doc s\n{MIN_APPLIED}\n# edits\n{MIN_EDITS}",
    ),
    "apply-edits-json": (
        "apply --update demo/min_unneeded.xq --doc s=demo/min.xml --edits EDITS "
        "--format json",
        0,
        '{"docs": {"s": "' + MIN_APPLIED + '"}, "edits": ['
        + ", ".join(MIN_EDITS.splitlines())
        + "]}\n",
    ),
    "verify-json": (
        "verify --view demo/books_view.xq --update demo/add_author.xq "
        f"{BOOKS} --format json",
        0,
        '{"correct": true, "minimal": true, "diff": null, "witness": null, '
        '"lemmas": {"L1": true, "L2": true, "L3": true}, "case": "T1"}\n',
    ),
    "verify-delta-s-text": (
        f"verify {MIN_DELTA_S} --format text",
        5,
        "correct: true\nminimal: false\n"
        'witness: {"op": "delete", "parent": 9, "tree": "<U>u</U>"}\n'
        "lemmas: L1=pass L2=pass L3=pass\n",
    ),
    "verify-delta-s-json": (
        f"verify {MIN_DELTA_S} --format json",
        5,
        '{"correct": true, "minimal": false, "diff": null, "witness": '
        '{"op": "delete", "parent": 9, "tree": "<U>u</U>"}, '
        '"lemmas": {"L1": true, "L2": true, "L3": true}}\n',
    ),
    "verify-rejected-text": (
        "verify --view demo/view.xq --update demo/drop_refs.xq --doc r=demo/d1.xml "
        "--format text",
        2,
        DROP_REFS_REJECTED,
    ),
    "verify-rejected-json": (
        "verify --view demo/view.xq --update demo/drop_refs.xq --doc r=demo/d1.xml "
        "--format json",
        2,
        DROP_REFS_REJECTED,
    ),
    "fuzz": (
        "fuzz --seed 7 --count 20",
        0,
        "T1: 2\nT2: 6\nT3: 2\nT4: 1\n"
        "Rejected(CondTargetDifferentVarsNoJoin): 3\n"
        "Rejected(NoSpecifiableCondition): 2\n"
        "Rejected(NoUniqueSourcePlacement): 1\n"
        "Rejected(TargetPrefixOfWherePath): 2\n"
        "Rejected(ViolatesProduction): 1\n"
        "failures: 0\n",
    ),
}


@pytest.mark.parametrize("command, code, out", PINNED.values(), ids=PINNED.keys())
def test_each_command_and_format_prints_its_pinned_bytes(
    command, code, out, tmp_path, capsys, monkeypatch
):
    # node ids restart at 1, as in a fresh process; an --edits log holds
    # the edit lines of the text form
    monkeypatch.setattr(xml_model, "_COUNTER", itertools.count(1))
    edits = tmp_path / "edits.jsonl"
    argv = [
        arg.replace("demo/", f"{DEMO}/").replace("EDITS", str(edits))
        for arg in command.split()
    ]
    assert main(argv) == code
    assert capsys.readouterr().out == out
    if "--edits" in argv:
        assert edits.read_text(encoding="utf-8") == MIN_EDITS


def test_nested_demo_translates_to_a_bound_statement_that_verifies(capsys):
    # the condition and the target share the step B inside {x/B}: the
    # translation binds each B, and the verify passes with every lemma
    nested = [
        "--view",
        str(DEMO / "nested_view.xq"),
        "--update",
        str(DEMO / "nested_update.xq"),
    ]
    assert main(["translate", *nested]) == 0
    assert capsys.readouterr().out == (
        'for x in doc("s")/R/A, c in x/B\n'
        'where c/C="1"\n'
        "update c/D { insert <F>f</F> }\n"
    )
    assert main(["verify", *nested, "--doc", f"s={DEMO / 'nested.xml'}"]) == 0
    assert capsys.readouterr().out == (
        "correct: true\nminimal: true\ncase: T1\n"
        "lemmas: L1=pass L2=pass L3=pass\n"
    )


def test_repeat_demo_is_rejected_as_unwritable(capsys):
    # the pair C, D under {x/D/C} would bind x/D/C/D, which no statement
    # can write: the translation is refused with a reason naming that
    repeat = [
        "--view",
        str(DEMO / "repeat_view.xq"),
        "--update",
        str(DEMO / "repeat_update.xq"),
    ]
    for extra in ([], ["--format", "json"]):
        assert main(["translate", *repeat, *extra]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["reason"] == "SourcePathRepeatsName"
        assert "x/D/C/D" in out["detail"]


def test_unguarded_demo_fails_correctness_with_no_lemmas(capsys):
    # the README translation without its appended x/title="IS": Susan lands
    # in every book whose title some subject's matches, so a wrapper whose
    # title is not "IS" shows her too; the lemmas judge only a correct
    # statement, so none runs
    argv = [
        "verify",
        "--view",
        str(DEMO / "books_view.xq"),
        "--update",
        str(DEMO / "add_author.xq"),
        "--doc",
        f"bkInf.xml={DEMO / 'bkInf.xml'}",
        "--doc",
        f"subjInf.xml={DEMO / 'subjInf.xml'}",
        "--delta-s",
        str(DEMO / "add_author_unguarded.xq"),
        "--format",
        "json",
    ]
    assert main(argv) == 5
    report = json.loads(capsys.readouterr().out)
    assert not report["correct"] and report["diff"]["path"] == "Qbk[2]/use[0]/auths"
    assert report["lemmas"] == {}


def test_main_builds_the_parser_once(capsys, monkeypatch):
    # repeated in-process calls reuse one parser, and print the same usage
    # error and exit with the same code every time
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        outputs = []
        for _ in range(3):
            assert main(["fuzz", "--seed", "1", "--count", "1"]) == 0
            with pytest.raises(SystemExit) as exited:
                main(["fuzz", "--seed", "1"])
            outputs.append((exited.value.code, capsys.readouterr()))
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert outputs[0][0] == 3 and "required: --count" in outputs[0][1].err
    assert outputs[1:] == outputs[:1] * 2


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


# the Baseline's three-way product of 60 A's: 216,000 tuples unless a
# budget stops the enumeration
PRODUCT_BINDINGS = 'for x in doc("s")/R/A, y in doc("s")/R/A, z in doc("s")/R/A'
PRODUCT_ERROR = (
    "error: the bindings x, y, z would enumerate more than 10,000 tuples "
    "(9,960 reached, the next partial tuple adds 60)\n"
)


@pytest.fixture
def product(tmp_path, monkeypatch):
    monkeypatch.setattr(evaluator, "TUPLE_BUDGET", 10_000)
    paths = {}
    for name, content in {
        "s.xml": "<R>" + "<A><C>1</C><T/></A>" * 60 + "</R>",
        "eval.xq": f"<v>{{{PRODUCT_BINDINGS} return <e>{{x/C}}</e>}}</v>",
        "view.xq": f"<v>{{{PRODUCT_BINDINGS} return <e>{{x/C}}{{x/T}}</e>}}</v>",
        "update.xq": 'for r in v/e where r/C="1" update r/T { insert <U>1</U> }',
        "apply.xq": f'{PRODUCT_BINDINGS} where x/C="1" update x/T {{ insert <U>1</U> }}',
    }.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    return paths


def test_a_product_past_the_tuple_budget_exits_4(product, capsys):
    # each command stops at the level that would pass the budget, before
    # it is built, and names the bindings and the count reached
    doc = ["--doc", f"s={product['s.xml']}"]
    for argv in (
        ["eval", "--view", product["eval.xq"], *doc],
        ["apply", "--update", product["apply.xq"], *doc],
        ["verify", "--view", product["view.xq"], "--update", product["update.xq"], *doc],
    ):
        assert main(argv) == 4, argv
        assert capsys.readouterr() == ("", PRODUCT_ERROR)


def test_a_product_past_the_tuple_budget_allocates_little(product, capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["eval", "--view", product["eval.xq"], "--doc", f"s={product['s.xml']}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4 and capsys.readouterr().err == PRODUCT_ERROR
    # the whole product takes about 170 MB; the 10,000 tuples built take 10
    assert peak < 40_000_000


def test_lemma_demo_flags_a_hand_written_statement(capsys):
    # precise on its one-A document, but it deletes under the A's whose C
    # is 2 where the view update deletes under those whose C is 1: under
    # the translation's case, L3 flags it.  No case is reported
    argv = [
        "verify",
        "--view",
        str(DEMO / "lemma_view.xq"),
        "--update",
        str(DEMO / "lemma_update.xq"),
        "--doc",
        f"s={DEMO / 'lemma.xml'}",
        "--delta-s",
        str(DEMO / "lemma_swapped.xq"),
    ]
    assert main([*argv, "--format", "json"]) == 5
    assert json.loads(capsys.readouterr().out) == {
        "correct": True,
        "minimal": True,
        "diff": None,
        "witness": None,
        "lemmas": {"L1": True, "L2": True, "L3": False},
    }
    assert main(argv) == 5
    assert capsys.readouterr().out == (
        "correct: true\nminimal: true\nlemmas: L1=pass L2=pass L3=FAIL\n"
    )


def _verify_hand_statement(tmp_path, demo: str, doc: str, statement: str) -> int:
    path = tmp_path / "hand.xq"
    path.write_text(statement, encoding="utf-8")
    return main(
        [
            "verify",
            "--view",
            str(DEMO / f"{demo}_view.xq"),
            "--update",
            str(DEMO / f"{demo}_update.xq"),
            "--doc",
            f"s={DEMO / doc}",
            "--delta-s",
            str(path),
            "--format",
            "json",
        ]
    )


def test_a_hand_statement_binding_what_the_translation_does_not_runs_no_lemma(
    tmp_path, capsys
):
    # the same edits as the translation on every document, through a
    # binding the translation does not add: the lemmas, stated for the
    # translation's bindings, would pair each A's B's with its one context
    statement = 'for x in doc("s")/R/A, y in x/B where x/C="1" update y { delete D }'
    assert _verify_hand_statement(tmp_path, "lemma", "lemma.xml", statement) == 0
    assert json.loads(capsys.readouterr().out)["lemmas"] == {}


def test_a_hand_statement_renaming_the_added_binding_runs_the_lemmas(
    tmp_path, capsys
):
    # the translation adds c in x/B; the same path under another name keeps
    # the lemmas' pairing
    statement = (
        'for x in doc("s")/R/A, b in x/B where b/C="1" '
        "update b/D { insert <F>f</F> }"
    )
    assert _verify_hand_statement(tmp_path, "nested", "nested.xml", statement) == 0
    assert json.loads(capsys.readouterr().out)["lemmas"] == {
        "L1": True,
        "L2": True,
        "L3": True,
    }


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
