"""Seeded generation of (store, view, view-update) triples.

Every generator builds concrete XML, view text and update text, runs them
through the real parsers, and tags the triple with the outcome the
classifier is expected to produce.  Generation is a pure function of the
supplied random generator, which keeps fuzz runs reproducible byte for
byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lang import UpdateStatement, ViewDef, parse_update, parse_view_def
from .xml_model import DocumentStore, parse_document

_POOL = [
    "ax", "bel", "cor", "dun", "elm", "fig", "gar", "hop", "ivy", "jet",
    "koa", "lug", "mar", "nim", "oak", "pug", "qin", "rye", "sol", "tam",
]

DOC = "src"


@dataclass
class FuzzCase:
    store: DocumentStore
    view: ViewDef
    update: UpdateStatement
    view_text: str
    update_text: str
    expect: str  # "T1" | "T2" | "T3" | "T4" | "reject:<ReasonCode>"


def _case(doc_xml: str, view_text: str, update_text: str, expect: str) -> FuzzCase:
    store = DocumentStore()
    store.add(DOC, parse_document(doc_xml))
    return FuzzCase(
        store=store,
        view=parse_view_def(view_text),
        update=parse_update(update_text),
        view_text=view_text,
        update_text=update_text,
        expect=expect,
    )


def _names(rng: random.Random, k: int) -> list[str]:
    return rng.sample(_POOL, k)


def gen_t1(rng: random.Random) -> FuzzCase:
    """Condition and target map to the same variable, inside one subtree."""
    R, A, C, T, U, W, v, e = _names(rng, 8)
    deep = rng.random() < 0.5  # give the target subtrees a second level

    def item() -> str:
        cval = rng.choice(["1", "2"])
        ts = []
        for _ in range(rng.randint(1, 2)):
            if deep:
                inner = "".join(
                    f"<{W}>{rng.choice(['w1', 'w2'])}</{W}>"
                    for _ in range(rng.randint(1, 2))
                )
                us = "".join(f"<{U}>{inner}</{U}>" for _ in range(rng.randint(1, 2)))
            else:
                us = "".join(
                    f"<{U}>{rng.choice(['u1', 'u2'])}</{U}>"
                    for _ in range(rng.randint(1, 2))
                )
            ts.append(f"<{T}>{us}</{T}>")
        return f"<{A}><{C}>{cval}</{C}>{''.join(ts)}</{A}>"

    doc = f"<{R}>{''.join(item() for _ in range(rng.randint(1, 3)))}</{R}>"
    has_cdn = rng.random() < 0.4
    where = f' where x/{C}="1"' if has_cdn else ""
    view_text = (
        f'<{v}>{{for x in doc("{DOC}")/{R}/{A}{where} '
        f"return <{e}>{{x/{C}}}{{x/{T}}}</{e}>}}</{v}>"
    )

    if deep and rng.random() < 0.5:
        target, child, texts = f"r/{T}/{U}", W, ["w1", "w2"]
    else:
        target, child = f"r/{T}", U
        texts = ["w-sub", "w-sub"] if deep else ["u1", "u2"]
    kind = rng.choice(["insert", "delete_tree", "delete_label"])
    if kind == "insert":
        action = f"insert <{child}>fresh</{child}>"
    elif kind == "delete_tree":
        if deep and child == U:
            action = f"delete <{U}><{W}>{rng.choice(['w1', 'w2'])}</{W}></{U}>"
        else:
            action = f"delete <{child}>{rng.choice(texts)}</{child}>"
    else:
        action = f"delete {child}"
    update_text = f'for r in {v}/{e} where r/{C}="1" update {target} {{ {action} }}'
    return _case(doc, view_text, update_text, "T1")


def _t2_fixture(rng: random.Random):
    """A join view whose condition and target sides are exposed separately.

    Each item holds join-carrying subtrees (K/D under C, S under H) and
    update-target subtrees (F/G under C, Q under H) that no other return
    expression's copy contains.  A source subtree exposed through two
    return expressions at once would surface an update in both copies on
    re-evaluation while the view-level update only addresses one path, so
    the round trip only closes for disjoint exposure.
    """
    R, A, B, C, K, D, F, G, P, H, S, Q, W, v, e = _names(rng, 15)

    def citem() -> str:
        dval = rng.choice(["1", "2"])
        ps = "".join(
            f"<{P}>{rng.choice(['p1', 'p2'])}</{P}>" for _ in range(rng.randint(1, 2))
        )
        return (
            f"<{C}><{K}><{D}>{dval}</{D}></{K}>"
            f"<{F}><{G}>{ps}</{G}></{F}></{C}>"
        )

    def item() -> str:
        hval = rng.choice(["1", "2"])
        ws = "".join(
            f"<{W}>{rng.choice(['w1', 'w2'])}</{W}>" for _ in range(rng.randint(1, 2))
        )
        cs = "".join(citem() for _ in range(rng.randint(1, 2)))
        return (
            f"<{A}><{B}>b0</{B}>{cs}"
            f"<{H}><{S}>{hval}</{S}><{Q}>{ws}</{Q}></{H}></{A}>"
        )

    doc = f"<{R}>{''.join(item() for _ in range(rng.randint(1, 2)))}</{R}>"
    extra = f' and z/{S}="1"' if rng.random() < 0.5 else ""
    view_text = (
        f'<{v}>{{for x in doc("{DOC}")/{R}/{A}, y in x/{C}, z in x/{H} '
        f"where y/{K}/{D}=z/{S}{extra} "
        f"return <{e}>{{x/{B}}}{{y/{K}}}{{y/{F}/{G}}}{{z}}</{e}>}}</{v}>"
    )
    return doc, view_text, (R, A, B, C, K, D, F, G, P, H, S, Q, W, v, e)


def _update_root(rng: random.Random, v: str, e: str) -> str:
    if rng.random() < 0.5:
        return f"view({v})/{v}/{e}"
    return f"{v}/{e}"


def gen_t2(rng: random.Random) -> FuzzCase:
    """Condition rides one side of a join atom; the target belongs to the
    variable on the other side."""
    doc, view_text, names = _t2_fixture(rng)
    R, A, B, C, K, D, F, G, P, H, S, Q, W, v, e = names
    if rng.random() < 0.5:
        cond = f'r/{H}/{S}="1"'  # maps to the z side of the join
        target, child, texts = f"r/{G}", P, ["p1", "p2"]
    else:
        cond = f'r/{K}/{D}="1"'  # maps to the y side of the join
        target, child, texts = f"r/{H}/{Q}", W, ["w1", "w2"]
    kind = rng.choice(["insert", "delete_tree", "delete_label"])
    if kind == "insert":
        action = f"insert <{child}>fresh</{child}>"
    elif kind == "delete_tree":
        action = f"delete <{child}>{rng.choice(texts)}</{child}>"
    else:
        action = f"delete {child}"
    update_text = (
        f"for r in {_update_root(rng, v, e)} where {cond} "
        f"update {target} {{ {action} }}"
    )
    return _case(doc, view_text, update_text, "T2")


def gen_t2_reject(rng: random.Random) -> FuzzCase:
    """Targets that are a prefix of a join path must be turned away."""
    doc, view_text, names = _t2_fixture(rng)
    R, A, B, C, K, D, F, G, P, H, S, Q, W, v, e = names
    cond = rng.choice([f'r/{H}/{S}="1"', f'r/{K}/{D}="1"'])
    if rng.random() < 0.5:
        target, action = f"r/{K}", f"insert <{D}>3</{D}>"
    else:
        target, action = f"r/{H}", "delete junk"
    update_text = (
        f"for r in {_update_root(rng, v, e)} where {cond} "
        f"update {target} {{ {action} }}"
    )
    return _case(doc, view_text, update_text, "reject:TargetPrefixOfWherePath")


def gen_section4_reject(rng: random.Random) -> FuzzCase:
    """Condition and target map to unrelated variables: no translation."""
    doc, view_text, names = _t2_fixture(rng)
    R, A, B, C, K, D, F, G, P, H, S, Q, W, v, e = names
    cond = rng.choice([f'r/{H}/{S}="1"', f'r/{K}/{D}="1"'])
    update_text = (
        f"for r in {_update_root(rng, v, e)} where {cond} "
        f"update r/{B} {{ insert <{P}>q</{P}> }}"
    )
    return _case(doc, view_text, update_text, "reject:CondTargetDifferentVarsNoJoin")


def _single_var_fixture(rng: random.Random):
    R, A, C, M, T, W, v, e = _names(rng, 8)
    deep = rng.random() < 0.5  # route the deleted trees through a middle level

    def item() -> str:
        cval = rng.choice(["1", "2"])
        ts = "".join(
            f"<{T}><{W}>{rng.choice(['w1', 'w2'])}</{W}></{T}>"
            for _ in range(rng.randint(0, 2))
        )
        body = f"<{M}>{ts}</{M}>" if deep else ts
        return f"<{A}><{C}>{cval}</{C}>{body}</{A}>"

    doc = f"<{R}>{''.join(item() for _ in range(rng.randint(1, 3)))}</{R}>"
    gamma = f"x1/{M}/{T}" if deep else f"x1/{T}"
    has_cdn = rng.random() < 0.3
    where = f' where x1/{C}="2"' if has_cdn else ""
    view_text = (
        f'<{v}>{{for x1 in doc("{DOC}")/{R}/{A}{where} '
        f"return <{e}>{{x1/{C}}}{{{gamma}}}</{e}>}}</{v}>"
    )
    return doc, view_text, (R, A, C, M, T, W, v, e)


def gen_t3(rng: random.Random) -> FuzzCase:
    doc, view_text, names = _single_var_fixture(rng)
    R, A, C, M, T, W, v, e = names
    update_text = f'for w in {v}/{e} where w/{C}="1" update w {{ delete {T} }}'
    return _case(doc, view_text, update_text, "T3")


def gen_t4(rng: random.Random) -> FuzzCase:
    doc, view_text, names = _single_var_fixture(rng)
    R, A, C, M, T, W, v, e = names
    update_text = f'for u in {v} where u/{e}/{C}="1" update u ( delete {e} )'
    return _case(doc, view_text, update_text, "T4")


def _bare_binding_fixture(rng: random.Random):
    """A view whose wrapper trees each hold one bare ``{x}`` binding copy."""
    R, A, C, W, Q, E = _names(rng, 6)
    doc = (
        f"<{R}><{A}>"
        + "".join(
            f"<{C}><{W}>{rng.choice(['1', '2'])}</{W}></{C}>"
            for _ in range(rng.randint(1, 2))
        )
        + f"</{A}></{R}>"
    )
    view_text = f'<{Q}>{{for x in doc("{DOC}")/{R}/{A}/{C} return <{E}>{{x}}</{E}>}}</{Q}>'
    return doc, view_text, (C, W, Q, E)


def gen_insert_root_reject(rng: random.Random) -> FuzzCase:
    """A whole wrapper tree inserted at the root has no unique placement."""
    doc, view_text, (C, W, Q, E) = _bare_binding_fixture(rng)
    update_text = (
        f'for u in {Q} where u/{E}/{C}/{W}="1" '
        f"update u {{ insert <{E}><{C}><{W}>2</{W}></{C}></{E}> }}"
    )
    return _case(doc, view_text, update_text, "reject:NoUniqueSourcePlacement")


def gen_insert_production_reject(rng: random.Random) -> FuzzCase:
    """Adding a sibling to a bare-binding return breaks tuple production."""
    doc, view_text, (C, W, Q, E) = _bare_binding_fixture(rng)
    update_text = (
        f'for w in {Q}/{E} where w/{C}/{W}="1" '
        f"update w {{ insert <{C}><{W}>2</{W}></{C}> }}"
    )
    return _case(doc, view_text, update_text, "reject:ViolatesProduction")


def gen_insert_condition_reject(rng: random.Random) -> FuzzCase:
    """No condition can pin which source binding receives the new subtree."""
    R, A, C, Q, E = _names(rng, 5)
    doc = (
        f"<{R}>"
        + "".join(
            f"<{A}>"
            + "".join(
                f"<{C}>{rng.choice(['1', '2'])}</{C}>"
                for _ in range(rng.randint(1, 2))
            )
            + f"</{A}>"
            for _ in range(rng.randint(1, 2))
        )
        + f"</{R}>"
    )
    view_text = f'<{Q}>{{for x in doc("{DOC}")/{R}/{A} return <{E}>{{x/{C}}}</{E}>}}</{Q}>'
    update_text = (
        f'for w in {Q}/{E} where w/{C}="1" update w {{ insert <{C}>9</{C}> }}'
    )
    return _case(doc, view_text, update_text, "reject:NoSpecifiableCondition")


GENERATORS = [
    gen_t1,
    gen_t2,
    gen_t2_reject,
    gen_section4_reject,
    gen_t3,
    gen_t4,
    gen_insert_root_reject,
    gen_insert_production_reject,
    gen_insert_condition_reject,
]


def random_case(rng: random.Random) -> FuzzCase:
    return rng.choice(GENERATORS)(rng)
