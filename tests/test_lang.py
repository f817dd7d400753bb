"""Parsing and rendering of view definitions and update statements."""

from __future__ import annotations

import random

import pytest

from xview.errors import (
    DuplicateReturnName,
    DuplicateVariable,
    LevelMismatch,
    NonDistinctPathNames,
    QuerySyntaxError,
    UnboundVariable,
)
from xview.fuzzgen import GENERATORS
from xview.lang import (
    KEYWORDS,
    DeleteBinding,
    DeleteLabel,
    DeleteTree,
    InsertTree,
    PathEqPath,
    PathEqString,
    parse_update,
    parse_view_def,
    normalize_path,
    render_update,
    _Lexer,
)
from xview.xml_model import DocRoot, QualifiedPath, VIEW_ROOT, VarRoot, value_equal
from .conftest import EX1_VIEW, QBK_DS_PRINTED, QBK_DV, QBK_VIEW


def test_parse_example_view():
    v = parse_view_def(EX1_VIEW)
    assert v.view_root == "v" and v.wrapper == "e"
    assert [b.var for b in v.bindings] == ["x", "y", "z"]
    assert v.bindings[0].source == QualifiedPath(DocRoot("r"), ("r", "A"))
    assert v.bindings[1].source == QualifiedPath(VarRoot("x"), ("C",))
    assert v.conditions == (
        PathEqPath(("y", ("D",)), ("z", ())),
        PathEqString(("z", ()), "1"),
    )
    assert [(r.var, r.gamma) for r in v.returns] == [
        ("x", ("B",)),
        ("x", ("C",)),
        ("y", ("F", "G")),
        ("z", ()),
    ]


def test_parse_books_view():
    v = parse_view_def(QBK_VIEW)
    assert [b.var for b in v.bindings] == ["x", "y", "z"]
    assert v.conditions == (PathEqPath(("x", ("title",)), ("z", ("title",))),)
    assert len(v.returns) == 4


def test_variable_sigils_are_optional():
    sigiled = (
        '<v>{for $x in doc("r")/r/A, $y in $x/C, $z in $x/H '
        'where $y/D=$z and $z="1" '
        "return <e>{$x/B}{$x/C}{$y/F/G}{$z}</e>}</v>"
    )
    assert parse_view_def(sigiled) == parse_view_def(EX1_VIEW)


def test_duplicate_return_names_rejected():
    text = (
        '<v>{for x in doc("d")/r/emp, y in doc("d2")/r2/dept '
        "return <e>{x/name}{y/name}</e>}</v>"
    )
    with pytest.raises(DuplicateReturnName):
        parse_view_def(text)


def test_duplicate_return_name_through_bare_binding():
    # {z} exposes the last name of z's binding path, which collides with {x/H}
    text = '<v>{for x in doc("d")/r/A, z in x/H return <e>{x/H}{z}</e>}</v>'
    with pytest.raises(DuplicateReturnName):
        parse_view_def(text)


@pytest.mark.parametrize(
    "text,exc",
    [
        ('<v>{for x in doc("d")/r/A, x in x/C return <e>{x/B}</e>}</v>', DuplicateVariable),
        ('<v>{for x in y/C return <e>{x/B}</e>}</v>', UnboundVariable),
        ('<v>{for x in doc("d")/r/A where q/B="1" return <e>{x/B}</e>}</v>', UnboundVariable),
        ('<v>{for x in doc("d")/r/A return <e>{q/B}</e>}</v>', UnboundVariable),
        ('<v>{for x in doc("d")/r/A/r return <e>{x/B}</e>}</v>', NonDistinctPathNames),
        ('<v>{for x in doc("d")/r/A return <e>{x/B/C/B}</e>}</v>', NonDistinctPathNames),
        ('<v>{for x in doc("d")/r/A return <v>{x/B}</v>}</v>', QuerySyntaxError),
        ('<v>{for x in doc("d")/r/A return <e><f>{x/B}</f></e>}</v>', QuerySyntaxError),
        ('<v>{for x in doc("d")/r/v return <e>{x/B}</e>}</v>', QuerySyntaxError),
        ('<v>{for x in doc("d")/r/A return <e></e>}</v>', QuerySyntaxError),
        ('<v>{for x in doc("d")/r/A return <e>{x/B}</e>}</w>', QuerySyntaxError),
        ("garbage", QuerySyntaxError),
    ],
)
def test_view_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_view_def(text)


def test_parse_view_update():
    u = parse_update(QBK_DV)
    assert u.level == "view"
    assert u.bindings[0].source == QualifiedPath(VIEW_ROOT, ("Qbk", "use"))
    assert u.conditions == (PathEqString(("r", ("title",)), "IS"),)
    assert u.target.var == "r" and u.target.path == ("auths",)
    assert isinstance(u.action, InsertTree)
    assert u.action.tree.label == "aName" and u.action.tree.text == "Susan"


def test_parse_wrapper_level_delete_label():
    u = parse_update('for e in v/e where e/H="1" update e ( delete C )')
    assert u.level == "view"
    assert u.action == DeleteLabel("C")
    assert u.target.path == () and not u.target.parent_step


def test_parse_root_level_delete_wrapper():
    u = parse_update('for u in v where u/e/H="1" update u ( delete e )')
    assert u.level == "view"
    assert u.bindings[0].source == QualifiedPath(VIEW_ROOT, ("v",))
    assert u.action == DeleteLabel("e")


def test_parse_printed_source_update_with_sigil():
    u = parse_update(QBK_DS_PRINTED)
    assert u.level == "source"
    assert [b.var for b in u.bindings] == ["x", "y", "z"]
    assert u.bindings[2].source == QualifiedPath(VarRoot("y"), ("subjs", "subj"))
    assert u.conditions == (
        PathEqPath(("x", ("title",)), ("z", ("title",))),
        PathEqString(("x", ("title",)), "IS"),
    )


def test_parse_binding_deletion_form():
    u = parse_update('for x1 in doc("d")/R/A where x1/C="1" update x1/.. ( delete A )')
    assert u.action == DeleteBinding("x1")
    assert u.target.parent_step and u.target.path == ()
    # a different label deletes by label from the parent instead
    u2 = parse_update('for x1 in doc("d")/R/A where x1/C="1" update x1/.. ( delete Z )')
    assert u2.action == DeleteLabel("Z")


def test_parse_parent_step_with_path():
    u = parse_update('for x1 in doc("d")/R/A where x1/C="1" update x1/T/.. ( delete T )')
    assert u.action == DeleteLabel("T")
    assert u.target.path == ("T",) and u.target.parent_step


def test_parse_delete_tree_payload():
    u = parse_update(
        'for x in doc("d")/r/A where x/B="1" update x/C { delete <D>1</D> }'
    )
    assert isinstance(u.action, DeleteTree)
    assert u.action.tree.label == "D"


@pytest.mark.parametrize(
    "text,exc",
    [
        # two atoms at view level
        ('for r in v/e where r/A="1" and r/B="2" update r/C { delete D }', QuerySyntaxError),
        # view-level join condition
        ("for r in v/e where r/A=r/B update r/C { delete D }", QuerySyntaxError),
        # parent step at view level
        ('for r in v/e where r/A="1" update r/C/.. { delete C }', QuerySyntaxError),
        # no where clause
        ('for x in doc("d")/r/A update x/C { delete D }', QuerySyntaxError),
        # mixed roots
        (
            'for x in doc("d")/r/A, r in v/e where x/B="1" update x/C { delete D }',
            LevelMismatch,
        ),
        # unbound target
        ('for x in doc("d")/r/A where x/B="1" update q/C { delete D }', UnboundVariable),
        # view(Name) not followed by the name
        ('for r in view(Q)/other/e where r/A="1" update r/C { delete D }', QuerySyntaxError),
        # unterminated payload
        ('for x in doc("d")/r/A where x/B="1" update x/C { insert <D>1 }', QuerySyntaxError),
    ],
)
def test_update_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_update(text)


_STMT = 'for x in doc("d")/r/A where x/B="1" update x/C '


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_update, 'for x in doc("d")/r/A where x/B="1 update x/C { delete D }'),
        (parse_update, _STMT + "{ delete D };"),
        (parse_update, 'for x in doc("s") where x/B="1" update x/C { delete D }'),
        (parse_update, 'for x in doc("s")/R/A, y in x where y/B="1" update y/C { delete D }'),
        (parse_update, _STMT + "{ delete D } x"),
        (parse_view_def, '<v>{for x in doc("s")/R/A return <e>{x/B}</e>}</v> x'),
        (parse_update, _STMT + "delete D"),
        (parse_update, _STMT + "{ where D }"),
        (parse_update, 'for r in v/e, s in w/f where r/B="1" update r/C { delete D }'),
        (parse_update, _STMT + "{ insert D }"),
        (parse_update, 'for x in doc("d")/r/A, where x/B="1" update x/C { delete D }'),
        (parse_view_def, '<v>{for x in doc("s")/R/A, return <e>{x/B}</e>}</v>'),
    ],
    ids=[
        "unterminated-string",
        "stray-semicolon",
        "doc-without-path",
        "variable-without-path",
        "trailing-after-update",
        "trailing-after-view",
        "no-action-opener",
        "unknown-action",
        "two-views",
        "insert-without-payload",
        "trailing-comma-before-where",
        "trailing-comma-before-return",
    ],
)
def test_statement_syntax_errors(parse, text):
    with pytest.raises(QuerySyntaxError):
        parse(text)


def test_payload_may_hold_the_closing_delimiter():
    u = parse_update(_STMT + "{ insert <D>}</D> }")
    assert isinstance(u.action, InsertTree)
    assert u.action.tree.label == "D" and u.action.tree.text == "}"


def test_update_payload_attribute_rejected_by_document_parser():
    from xview.errors import UnsupportedFeature

    with pytest.raises(UnsupportedFeature):
        parse_update(
            'for x in doc("d")/r/A where x/B="1" update x/C { insert <D a="1">x</D> }'
        )


def test_render_contains_appended_condition(qbk_view, qbk_dv):
    from xview.translator import translate

    out = translate(qbk_view, qbk_dv)
    rendered = render_update(out.statement)
    assert 'x/title=z/title and x/title="IS"' in rendered


def test_render_parse_round_trip_on_view_update():
    u = parse_update(QBK_DV)
    assert parse_update(render_update(u)) == u


def test_render_binding_deletion_surface():
    u = parse_update('for x1 in doc("d")/R/A where x1/C="1" update x1/.. ( delete A )')
    rendered = render_update(u)
    assert "update x1/.. { delete A }" in rendered
    assert parse_update(rendered) == u


@pytest.mark.parametrize("var", ["view", "doc"])
def test_doc_and_view_are_plain_names_unless_a_paren_follows(var):
    from xview.translator import Case, translate

    view = parse_view_def(
        f'<v>{{for {var} in doc("s")/R/A, y in {var}/C '
        f"return <e>{{{var}/B}}{{y/E}}{{y/D}}</e>}}</v>"
    )
    assert view.bindings[0].source == QualifiedPath(DocRoot("s"), ("R", "A"))
    assert view.bindings[1].source == QualifiedPath(VarRoot(var), ("C",))
    update = parse_update('for r in v/e where r/D="1" update r/E { insert <F>f</F> }')
    out = translate(view, update)
    assert out.case is Case.T1
    rendered = render_update(out.statement)
    assert rendered.startswith(f'for {var} in doc("s")/R/A, y in {var}/C\n')
    assert parse_update(rendered) == out.statement
    # a view called doc or view roots an update's binding by its bare name
    bare = parse_update(f'for r in {var}/e where r/D="1" update r/E {{ delete F }}')
    assert bare.bindings[0].source == QualifiedPath(VIEW_ROOT, (var, "e"))


def test_normalize_path_chain(ex1_view):
    assert normalize_path(ex1_view, "y", ("D",)) == QualifiedPath(
        DocRoot("r"), ("r", "A", "C", "D")
    )
    assert normalize_path(ex1_view, "x") == QualifiedPath(DocRoot("r"), ("r", "A"))


def test_normalize_path_view_level(qbk_dv):
    assert normalize_path(qbk_dv, "r", ("title",)) == QualifiedPath(
        VIEW_ROOT, ("Qbk", "use", "title")
    )


def test_normalize_path_detects_cycles():
    # unreachable through the parsers (bindings may only reference earlier
    # variables); the defensive check still has to hold for any caller
    from types import SimpleNamespace

    from xview.errors import CyclicBinding
    from xview.lang import Binding

    stmt = SimpleNamespace(
        bindings=(
            Binding("a", QualifiedPath(VarRoot("b"), ("X",))),
            Binding("b", QualifiedPath(VarRoot("a"), ("Y",))),
        )
    )
    with pytest.raises(CyclicBinding):
        normalize_path(stmt, "a")


def test_prop_render_parse_inverse_over_generators():
    rng = random.Random(1234)
    for gen in GENERATORS:
        for _ in range(20):
            case = gen(rng)
            assert parse_update(render_update(case.update)) == case.update


def test_prop_normalized_paths_concatenate_binding_segments():
    rng = random.Random(99)
    for gen in GENERATORS:
        for _ in range(10):
            case = gen(rng)
            view = case.view
            for ret in view.returns:
                qp = normalize_path(view, ret.var, ret.gamma)
                # the expansion ends with the expression's own names
                assert qp.steps[len(qp.steps) - len(ret.gamma):] == ret.gamma
                assert isinstance(qp.root, DocRoot)


# ----------------------------------------------------------------------
# The lexer against the character-by-character scanner it replaced


def _reference_tokens(text: str) -> list[tuple]:
    """Tokens of ``text`` up to eof, ending in ("error", message) on a
    lexical error, as the former per-character scanner produced them."""
    tokens: list[tuple] = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        start = pos
        if pos >= len(text):
            return tokens + [("eof", "", start)]
        c = text[pos]
        if c == '"':
            end = text.find('"', pos + 1)
            if end < 0:
                return tokens + [("error", f"unterminated string at offset {start}")]
            tokens.append(("str", text[pos + 1 : end], start))
            pos = end + 1
        elif text.startswith("..", pos):
            tokens.append(("punct", "..", start))
            pos += 2
        elif c in "<>{}()/,=$":
            tokens.append(("punct", c, start))
            pos += 1
        elif c.isalpha() or c == "_":
            end = pos
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            tokens.append(("kw" if word in KEYWORDS else "name", word, start))
            pos = end
        else:
            return tokens + [
                ("error", f"unexpected character {c!r} at offset {start}")
            ]


def _lexed_tokens(text: str) -> list[tuple]:
    lx = _Lexer(text)
    tokens: list[tuple] = []
    while True:
        try:
            tok = lx.next()
        except QuerySyntaxError as exc:
            return tokens + [("error", str(exc))]
        tokens.append(tok)
        if tok[0] == "eof":
            return tokens


# quotes, dots, every punctuation mark, blanks (\x1c is one to isspace),
# digits, "_", a letter, and characters that are alphanumeric but no letter
_LEX_ALPHABET = list('"..<>{}()/,=$') + [
    " ", "\t", "\n", "\x1c", "\u00a0", "0", "7", "_", "a", "Z",
    "for", "in", "é", "²", "Ⅻ", "中", "-", "!",
]


def test_lexer_matches_the_per_character_scanner():
    rng = random.Random(12)
    for _ in range(4000):
        text = "".join(rng.choice(_LEX_ALPHABET) for _ in range(rng.randint(0, 14)))
        assert _lexed_tokens(text) == _reference_tokens(text), repr(text)
