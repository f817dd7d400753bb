"""Tests of the benchmark itself: inputs, models, traced counts, fuzz batches.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _session_updates(seed: int, count: int) -> tuple[list, list]:
    _b, _s, model = gen.join_documents(seed)
    session = gen.JoinSession(seed, model)
    ops = [session.next_op() for _ in range(3 * count)]
    updates = []
    for _ in range(count):
        upd = session.next_update()
        session.commit(upd)
        updates.append(upd)
    return ops, updates


def test_same_seed_gives_identical_inputs():
    assert gen.join_documents(5)[:2] == gen.join_documents(5)[:2]
    assert gen.join_documents(5)[:2] != gen.join_documents(6)[:2]
    assert _session_updates(5, 40) == _session_updates(5, 40)
    assert _session_updates(5, 40) != _session_updates(6, 40)
    first, again = gen.deletion_rng(5), gen.deletion_rng(5)
    docs = [gen.deletion_document(first) for _ in range(3)]
    assert docs == [gen.deletion_document(again) for _ in range(3)]
    assert docs[0] != docs[1]
    seeds, seeds_again = gen.fuzz_seeds(5), gen.fuzz_seeds(5)
    assert [next(seeds) for _ in range(5)] == [next(seeds_again) for _ in range(5)]


def _brute_force_rows(books_xml: str, subj_xml: str) -> list[tuple]:
    rows = []
    for book in ET.fromstring(books_xml).findall("book"):
        for uni in ET.fromstring(subj_xml).findall("uni"):
            for subj in uni.findall("subjs/subj"):
                if book.findtext("title") == subj.findtext("title"):
                    rows.append(
                        (
                            tuple(a.text for a in book.find("auths")),
                            book.findtext("title"),
                            uni.findtext("uName"),
                            tuple(p.text for p in subj.find("profs")),
                        )
                    )
    return rows


def test_join_model_matches_brute_force_counts():
    books_xml, subj_xml, model = gen.join_documents(3)
    brute = _brute_force_rows(books_xml, subj_xml)
    assert len(brute) == gen.SUBJECTS
    assert model.expected_rows() == brute

    subj_titles = [s.findtext("title") for s in ET.fromstring(subj_xml).iter("subj")]
    _ops, updates = _session_updates(3, 60)
    rejected = [u for u in updates if u.expect.startswith("reject:")]
    assert len(rejected) == 60 // gen.UPDATES_PER_BLOCK
    for upd in updates:
        if upd.expect == "T2":
            assert upd.edits == subj_titles.count(upd.title)
        elif upd.expect == "T1":
            assert upd.edits == 1
        else:
            assert upd.edits == 0


def test_join_session_mix_and_pairing():
    ops, updates = _session_updates(4, 90)
    assert ops.count("eval") == gen.EVALS_PER_UPDATE * ops.count("update")
    inserted = {u.name for u in updates if u.kind == "insert" and u.edits}
    deleted = {u.name for u in updates if u.kind == "delete"}
    assert deleted <= inserted
    assert len(inserted - deleted) <= 2 * gen.MAX_PENDING


def test_deletion_model_matches_brute_force_counts():
    rng = gen.deletion_rng(2)
    for _ in range(3):
        text, matches = gen.deletion_document(rng)
        items = ET.fromstring(text).findall("A")
        assert len(items) == gen.ITEMS
        assert matches == sum(a.findtext("C") == "1" for a in items) == gen.ITEMS // 2


def _traced(name: str, seed: int, ops: int) -> dict:
    result = run.run(name, seed, 1e9, trace=True, max_ops=ops)
    assert result["correct"], result
    return {k: m["value"] for k, m in result["metrics"].items()}


EXACT = (
    "evaluator.tuples_enumerated",
    "evaluator.rows_out",
    "verifier.minimality_probes",
    "updater.ops_planned",
    "updater.edits",
)


def test_traced_counts_repeat_exactly():
    first = _traced("join-session", 7, 12)
    second = _traced("join-session", 7, 12)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["evaluator.tuples_per_row"] == gen.BOOKS

    first = _traced("deletion-verify", 7, 2)
    second = _traced("deletion-verify", 7, 2)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["evaluator.tuples_per_row"] == 1
    assert first["verifier.minimality_probes"] == gen.ITEMS // 2


def test_tracer_restores_the_program():
    import xview.evaluator
    import xview.updater

    before = (xview.updater.enumerate_bindings, xview.DocumentStore.copy)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert xview.updater.enumerate_bindings is not before[0]
        assert xview.evaluator.string_value is not xview.xml_model.string_value
    finally:
        tr.uninstall()
    assert (xview.updater.enumerate_bindings, xview.DocumentStore.copy) == before
    assert xview.evaluator.string_value is xview.xml_model.string_value


def test_fuzz_histogram_sums_to_count():
    import xview.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = xview.cli.main(["fuzz", "--seed", "11", "--count", "40"])
    lines = dict(line.rsplit(": ", 1) for line in out.getvalue().splitlines())
    assert code == 0
    assert lines.pop("failures") == "0"
    assert sum(int(v) for v in lines.values()) == 40
    assert workloads.FuzzMix(11)._batch(12, 40) > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
