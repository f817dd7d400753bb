"""Shared fixtures: the small running document, the books/universities set,
and the free space of single-variable views and updates."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

import pytest

from xview import DocumentStore, parse_document, parse_update, parse_view_def

# A document exercising every structural case at once: a return expression
# that matches nothing is covered by D1_NO_B below, multi-match paths by the
# two C children, and a join between sibling subtrees by D and H.
D1_XML = (
    "<r><A><B>b1</B><C><D>1</D><F><G>g1</G></F></C>"
    "<C><D>2</D></C><H>1</H></A></r>"
)

D1_NO_B_XML = "<r><A><C><D>1</D><F><G>g1</G></F></C><C><D>2</D></C><H>1</H></A></r>"

EX1_VIEW = (
    '<v>{for x in doc("r")/r/A, y in x/C, z in x/H '
    'where y/D=z and z="1" '
    "return <e>{x/B}{x/C}{y/F/G}{z}</e>}</v>"
)

# EX1_VIEW with {x/C} replaced by {y/D}: the same join, but every source
# subtree is exposed through one return expression only, so T2 updates of
# the G trees translate.
EX1_DISJOINT_VIEW = (
    '<v>{for x in doc("r")/r/A, y in x/C, z in x/H '
    'where y/D=z and z="1" '
    "return <e>{x/B}{y/D}{y/F/G}{z}</e>}</v>"
)

# Books with authors and titles; universities with subjects that reference
# book titles.  The first book is used by two universities, the last book
# matches no subject at all (its mark element, shared with the first book,
# exists to express a deliberately over-reaching source update in tests).
BKINF_XML = (
    "<bkInf>"
    "<book><auths><aName>John</aName><aName>Mary</aName></auths>"
    "<title>IS</title><mark>1</mark></book>"
    "<book><auths><aName>Peter</aName></auths><title>DB</title></book>"
    "<book><auths><aName>Kate</aName></auths><title>AI</title></book>"
    "<book><auths><aName>Zoe</aName></auths><title>XX</title><mark>1</mark></book>"
    "</bkInf>"
)

SUBJINF_XML = (
    "<subjInf>"
    "<uni><uName>UniSA</uName><subjs>"
    "<subj><sName>InfoSys</sName><title>IS</title>"
    "<profs><pName>Paul</pName></profs></subj>"
    "<subj><sName>DataBasics</sName><title>DB</title>"
    "<profs><pName>Rose</pName></profs></subj>"
    "</subjs></uni>"
    "<uni><uName>Swinburne</uName><subjs>"
    "<subj><sName>InfoSystems</sName><title>IS</title>"
    "<profs><pName>Hugh</pName></profs></subj>"
    "<subj><sName>MachineIntel</sName><title>AI</title>"
    "<profs><pName>Iris</pName></profs></subj>"
    "</subjs></uni>"
    "</subjInf>"
)

QBK_VIEW = (
    '<Qbk>{ for x in doc("bkInf.xml")/bkInf/book, '
    'y in doc("subjInf.xml")/subjInf/uni, '
    "z in y/subjs/subj "
    "where x/title=z/title "
    "return <use>{x/auths}{x/title}{y/uName}{z/profs}</use> }</Qbk>"
)

QBK_DV = (
    "for r in view(Qbk)/Qbk/use\n"
    'where r/title="IS"\n'
    "update r/auths { insert <aName>Susan</aName> }"
)

# The source statement the translator is expected to produce, including the
# optional $ sigil on one variable reference.
QBK_DS_PRINTED = (
    'for x in doc("bkInf.xml")/bkInf/book,\n'
    '    y in doc("subjInf.xml")/subjInf/uni,\n'
    "    z in $y/subjs/subj\n"
    'where x/title=z/title and x/title="IS"\n'
    "update x/auths { insert <aName>Susan</aName> }"
)

QBK_DS_NO_COND = (
    'for x in doc("bkInf.xml")/bkInf/book, '
    'y in doc("subjInf.xml")/subjInf/uni, '
    "z in y/subjs/subj "
    "where x/title=z/title "
    "update x/auths { insert <aName>Susan</aName> }"
)

QBK_DS_PADDED = (
    'for x in doc("bkInf.xml")/bkInf/book '
    'where x/mark="1" '
    "update x/auths { insert <aName>Susan</aName> }"
)


def slots(bindings) -> dict[str, int]:
    """Each variable's position in a for-clause's tuples, which hold the
    bound nodes in for-clause order: its binding's index."""
    return {binding.var: i for i, binding in enumerate(bindings)}


def join_session_store() -> DocumentStore:
    """The join-session shape: 50 books, and 10 unis of 20 subjects; each
    book's title is the title of 4 subjects."""
    titles = [f"t{i:02d}" for i in range(50)]
    books = "".join(
        f"<book><auths><aName>a{t}</aName></auths><title>{t}</title></book>"
        for t in titles
    )
    subjects = [titles[(7 * k) % 50] for k in range(200)]
    unis = "".join(
        f"<uni><uName>u{u}</uName><subjs>"
        + "".join(
            f"<subj><title>{t}</title><profs><pName>p</pName></profs></subj>"
            for t in subjects[20 * u : 20 * (u + 1)]
        )
        + "</subjs></uni>"
        for u in range(10)
    )
    store = DocumentStore()
    store.add("bkInf.xml", parse_document(f"<bkInf>{books}</bkInf>"))
    store.add("subjInf.xml", parse_document(f"<subjInf>{unis}</subjInf>"))
    return store


# The free space: one variable x over R/A; a view returning {x} or one
# 1-2 step path over B/C/D; and updates whose condition and target paths
# start at the returned name and go on over the other names, with an
# insertion, a tree deletion or a label deletion of one of B/C/D.
FREE_NAMES = "BCD"


def _name_paths(names: str, shortest: int, longest: int) -> list[tuple[str, ...]]:
    lengths = range(shortest, longest + 1)
    return [p for n in lengths for p in itertools.permutations(names, n)]


def free_space() -> Iterator[tuple[str, str, list[tuple[str, ...]]]]:
    """Every (view, update) pair of the free space, with the label paths
    below A that the view and the update read."""
    for gamma in [()] + _name_paths(FREE_NAMES, 1, 2):
        pivot = gamma[-1] if gamma else "A"
        ret = "/".join(("x",) + gamma)
        view = f'<v>{{for x in doc("s")/R/A return <e>{{{ret}}}</e>}}</v>'
        rest = "".join(n for n in FREE_NAMES if n != pivot)
        paths = [(pivot,) + tail for tail in _name_paths(rest, 0, 2)]
        for cond, target in itertools.product(paths, paths):
            for label in FREE_NAMES:
                for action in (
                    f"insert <{label}>1</{label}>",
                    f"delete <{label}>1</{label}>",
                    f"delete {label}",
                ):
                    update = (
                        f'for r in v/e where r/{"/".join(cond)}="1" '
                        f'update r/{"/".join(target)} {{ {action} }}'
                    )
                    below = [gamma, gamma + cond[1:], gamma + target[1:] + (label,)]
                    yield view, update, below


def free_space_doc(rng: random.Random, below: list[tuple[str, ...]]) -> str:
    """A document of one or two A trees along the label paths ``below``:
    zero to two copies of each step, and leaves "1" or "2".  A target path
    continues to the action's label, so a target is never a text leaf."""

    def grow(here: tuple[str, ...]) -> str:
        depth = len(here)
        steps = sorted({p[depth] for p in below if p[:depth] == here and p[depth:]})
        if not steps:
            return rng.choice("112")
        return "".join(
            f"<{n}>{grow(here + (n,))}</{n}>"
            for n in steps
            for _ in range(rng.choice((0, 1, 2, 2)))
        )

    tops = "".join(f"<A>{grow(())}</A>" for _ in range(rng.randint(1, 2)))
    return f"<R>{tops}</R>"


@pytest.fixture
def d1_store() -> DocumentStore:
    store = DocumentStore()
    store.add("r", parse_document(D1_XML))
    return store


@pytest.fixture
def ex1_view():
    return parse_view_def(EX1_VIEW)


@pytest.fixture
def ex1_disjoint_view():
    return parse_view_def(EX1_DISJOINT_VIEW)


@pytest.fixture
def qbk_store() -> DocumentStore:
    store = DocumentStore()
    store.add("bkInf.xml", parse_document(BKINF_XML))
    store.add("subjInf.xml", parse_document(SUBJINF_XML))
    return store


@pytest.fixture
def qbk_view():
    return parse_view_def(QBK_VIEW)


@pytest.fixture
def qbk_dv():
    return parse_update(QBK_DV)
