"""Seeded input generators and the expected-outcome models that go with them.

Nothing here imports ``xview``: the generators write XML and query text, and
the models predict what a correct program must answer from the generator's
own bookkeeping.  The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# ----------------------------------------------------------------------
# join-session: the README's books/subjects join, at a larger size

BOOKS = 50
SUBJECTS_PER_TITLE = 4  # every subject references exactly one book title
UNIS = 10
SUBJECTS = BOOKS * SUBJECTS_PER_TITLE  # 200

JOIN_VIEW = (
    '<Qbk>{for x in doc("bkInf.xml")/bkInf/book, '
    'y in doc("subjInf.xml")/subjInf/uni, z in y/subjs/subj '
    "where x/title=z/title "
    "return <use>{x/auths}{x/title}{y/uName}{z/profs}</use>}</Qbk>"
)

UPDATES_PER_BLOCK = 10  # exactly one rejected update in every block
EVALS_PER_UPDATE = 2
MAX_PENDING = 3  # inserted trees awaiting their paired delete, per kind


@dataclass
class Subject:
    uni: str
    title: str
    profs: list[str]


@dataclass
class JoinModel:
    """Title -> authors and subject -> profs, kept by the generator."""

    titles: list[str]  # book titles in document order
    authors: dict[str, list[str]]
    subjects: list[Subject]  # in document order
    by_title: dict[str, list[Subject]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for subj in self.subjects:
            self.by_title.setdefault(subj.title, []).append(subj)

    def expected_rows(self) -> list[tuple]:
        """View rows in nested-loop order: books outer, subjects inner."""
        rows = []
        for title in self.titles:
            auths = tuple(self.authors[title])
            for subj in self.by_title.get(title, ()):
                rows.append((auths, title, subj.uni, tuple(subj.profs)))
        return rows


@dataclass(frozen=True)
class JoinUpdate:
    """One view-level update and the outcome the model expects.

    ``expect`` is "T1", "T2" or "reject:<ReasonCode>"; ``kind`` is
    "insert" or "delete"; ``edits`` is the expected edit-log length.
    """

    text: str
    expect: str
    kind: str
    title: str
    name: str
    edits: int


def _words(rng: random.Random, prefix: str, k: int) -> list[str]:
    return [f"{prefix}{rng.randrange(10**6):06d}" for _ in range(k)]


def join_documents(seed: int) -> tuple[str, str, JoinModel]:
    """The two source documents (book and subject XML) and their model."""
    rng = random.Random(f"join-docs:{seed}")
    titles = [f"t{i:02d}{w}" for i, w in enumerate(_words(rng, "", BOOKS))]
    authors = {t: _words(rng, "a", rng.randint(1, 3)) for t in titles}
    subj_titles = [t for t in titles for _ in range(SUBJECTS_PER_TITLE)]
    rng.shuffle(subj_titles)
    per_uni = SUBJECTS // UNIS
    subjects = [
        Subject(f"u{i // per_uni}", title, _words(rng, "p", rng.randint(1, 2)))
        for i, title in enumerate(subj_titles)
    ]

    books_xml = "<bkInf>" + "".join(
        "<book><auths>"
        + "".join(f"<aName>{a}</aName>" for a in authors[t])
        + f"</auths><title>{t}</title></book>"
        for t in titles
    ) + "</bkInf>"
    unis = []
    for u in range(UNIS):
        subjs = subjects[u * per_uni : (u + 1) * per_uni]
        unis.append(
            f"<uni><uName>u{u}</uName><subjs>"
            + "".join(
                f"<subj><sName>s{u}_{j}</sName><title>{s.title}</title><profs>"
                + "".join(f"<pName>{p}</pName>" for p in s.profs)
                + "</profs></subj>"
                for j, s in enumerate(subjs)
            )
            + "</subjs></uni>"
        )
    subj_xml = "<subjInf>" + "".join(unis) + "</subjInf>"
    return books_xml, subj_xml, JoinModel(titles, authors, subjects)


class JoinSession:
    """The seeded op stream of one join-session client.

    Ops come in blocks of one update and two evals, shuffled within the
    block, so the mix is exact.  Updates come in blocks of ten with one
    rejected update at a seeded position.  An inserted tree is deleted
    again a few updates later, so the store size stays stationary.
    """

    def __init__(self, seed: int, model: JoinModel) -> None:
        self.rng = random.Random(f"join-ops:{seed}")
        self.model = model
        self.pending: dict[str, list[tuple[str, str]]] = {"T1": [], "T2": []}
        self.ops: list[str] = []
        self.updates: list[bool] = []  # True marks the rejected slot
        self.serial = 0

    def next_op(self) -> str:
        if not self.ops:
            self.ops = ["eval"] * EVALS_PER_UPDATE + ["update"]
            self.rng.shuffle(self.ops)
        return self.ops.pop()

    def next_update(self) -> JoinUpdate:
        if not self.updates:
            self.updates = [True] + [False] * (UPDATES_PER_BLOCK - 1)
            self.rng.shuffle(self.updates)
        rejected = self.updates.pop()
        self.serial += 1
        if rejected:
            return self._rejected()
        case = self.rng.choice(("T1", "T2"))
        pending = self.pending[case]
        if pending and (len(pending) >= MAX_PENDING or self.rng.random() < 0.5):
            title, name = pending.pop(0)
            kind = "delete"
        else:
            title = self.rng.choice(self.model.titles)
            name = f"n{self.serial}"
            pending.append((title, name))
            kind = "insert"
        if case == "T1":
            target, tree, edits = "r/auths", f"<aName>{name}</aName>", 1
        else:
            target, tree = "r/profs", f"<pName>{name}</pName>"
            edits = len(self.model.by_title[title])
        text = (
            f'for r in view(Qbk)/Qbk/use where r/title="{title}" '
            f"update {target} {{ {kind} {tree} }}"
        )
        return JoinUpdate(text, case, kind, title, name, edits)

    def _rejected(self) -> JoinUpdate:
        title = self.rng.choice(self.model.titles)
        name = f"n{self.serial}"
        if self.rng.random() < 0.5:
            target, reason = "r/title", "TargetPrefixOfWherePath"
        else:
            target, reason = "r/uName", "CondTargetDifferentVarsNoJoin"
        text = (
            f'for r in view(Qbk)/Qbk/use where r/title="{title}" '
            f"update {target} {{ insert <w>{name}</w> }}"
        )
        return JoinUpdate(text, f"reject:{reason}", "insert", title, name, 0)

    def commit(self, upd: JoinUpdate) -> None:
        """Advance the model past an update the program applied."""
        if upd.expect == "T1":
            _change(self.model.authors[upd.title], upd)
        elif upd.expect == "T2":
            for subj in self.model.by_title[upd.title]:
                _change(subj.profs, upd)


def _change(names: list[str], upd: JoinUpdate) -> None:
    if upd.kind == "insert":
        names.append(upd.name)
    else:
        names[:] = [n for n in names if n != upd.name]


# ----------------------------------------------------------------------
# deletion-verify: a single-variable view and a T4 root deletion

ITEMS = 160  # half of them match the deletion's condition

DELETE_VIEW = '<v>{for x1 in doc("d")/R/A return <e>{x1/C}{x1/T}</e>}</v>'
DELETE_UPDATE = 'for u in v where u/e/C="1" update u ( delete e )'


def deletion_document(rng: random.Random) -> tuple[str, int]:
    """One document and its number of matching items (exactly half)."""
    marks = ["1"] * (ITEMS // 2) + ["2"] * (ITEMS - ITEMS // 2)
    rng.shuffle(marks)
    items = []
    for mark in marks:
        ts = "".join(
            "<T>"
            + "".join(
                f"<W>w{rng.randrange(1000)}</W>" for _ in range(rng.randint(1, 2))
            )
            + "</T>"
            for _ in range(rng.randint(1, 2))
        )
        items.append(f"<A><C>{mark}</C>{ts}</A>")
    return "<R>" + "".join(items) + "</R>", marks.count("1")


def deletion_rng(seed: int) -> random.Random:
    return random.Random(f"deletion-docs:{seed}")


# ----------------------------------------------------------------------
# fuzz-mix: batches of the program's own fuzz generator

FUZZ_BATCH = 50  # cases per xview fuzz call


def fuzz_seeds(seed: int):
    """Endless stream of batch seeds derived from the workload seed."""
    rng = random.Random(f"fuzz-run:{seed}")
    while True:
        yield rng.randrange(2**31)
