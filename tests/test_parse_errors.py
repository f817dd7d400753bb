"""Malformed views and updates: the exact error each raises, and no other
exception for any mangled text."""

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
    UnsupportedFeature,
    XviewError,
)
from xview.fuzzgen import random_case
from xview.lang import parse_update, parse_view_def

V, U = parse_view_def, parse_update
# a source-level statement up to its action, and a well-formed view
_S = 'for x in doc("s")/R/A where x/B="1" update x/C '
_W = '<v>{for x in doc("s")/R/A return <e>{x/B}</e>}</v>'

# (parser, text, exception class, message); one row per raise in lang.py
# that text can reach, and the lexical errors at each kind of lookahead
CASES = {
    # lexical errors, raised the first time the parser looks at the token
    "bang": (
        V, '<v>{for x in doc("s")/R/A! return <e>{x/B}</e>}</v>',
        QuerySyntaxError, "unexpected character '!' at offset 25",
    ),
    # the bad token after R/R is seen before the path's names are checked
    "repeat-then-bang": (
        V, '<v>{for x in doc("s")/R/R! return <e>{x/B}</e>}</v>',
        QuerySyntaxError, "unexpected character '!' at offset 25",
    ),
    "superscript": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/²}</e>}</v>',
        QuerySyntaxError, "unexpected character '²' at offset 39",
    ),
    "digit-word": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/1B}</e>}</v>',
        QuerySyntaxError, "unexpected character '1' at offset 39",
    ),
    "lone-dot": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/.}</e>}</v>',
        QuerySyntaxError, "unexpected character '.' at offset 39",
    ),
    "unterminated-doc": (
        V, '<v>{for x in doc("s)/R/A return <e>{x/B}</e>}</v>',
        QuerySyntaxError, "unterminated string at offset 17",
    ),
    "unterminated-condition": (
        U, 'for x in doc("s")/R/A where x/B="1 update x/C { delete D }',
        QuerySyntaxError, "unterminated string at offset 32",
    ),
    "bang-after-atom": (
        U, 'for x in doc("s")/R/A where x/B="1" ! update x/C { delete D }',
        QuerySyntaxError, "unexpected character '!' at offset 36",
    ),
    "bang-after-sigil": (
        U, 'for $! in doc("s")/R/A where x/B="1" update x/C { delete D }',
        QuerySyntaxError, "unexpected character '!' at offset 5",
    ),
    "bang-after-return": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/B}!</e>}</v>',
        QuerySyntaxError, "unexpected character '!' at offset 41",
    ),
    "bang-after-view": (
        V, _W + " !",
        QuerySyntaxError, "unexpected character '!' at offset 51",
    ),
    "bang-as-action": (
        U, _S + "{ ! }",
        QuerySyntaxError, "unexpected character '!' at offset 49",
    ),
    "bang-as-payload": (
        U, _S + "{ insert ! }",
        QuerySyntaxError, "unexpected character '!' at offset 56",
    ),
    "bang-as-opener": (
        U, _S + "! delete D }",
        QuerySyntaxError, "unexpected character '!' at offset 47",
    ),
    # an expected token, at its offset; the end of input is found ''
    "eof-in-view": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/B}</e>}',
        QuerySyntaxError, "expected '<' at offset 46, found ''",
    ),
    "eof-in-update": (
        U, 'for x in doc("s")/R/A where',
        QuerySyntaxError, "expected 'name' at offset 27, found ''",
    ),
    "empty-update": (
        U, "",
        QuerySyntaxError, "expected 'for' at offset 0, found ''",
    ),
    "keyword-as-variable": (
        V, '<v>{for for in doc("s")/R/A return <e>{x/B}</e>}</v>',
        QuerySyntaxError, "expected 'name' at offset 8, found 'for'",
    ),
    "name-as-document": (
        U, 'for x in doc(s)/R/A where x/B="1" update x/C { delete D }',
        QuerySyntaxError, "expected 'str' at offset 13, found 's'",
    ),
    "string-as-step": (
        V, '<v>{for x in doc("s")/"R" return <e>{x/B}</e>}</v>',
        QuerySyntaxError, "expected 'name' at offset 22, found 'R'",
    ),
    "comma-before-where": (
        U, 'for x in doc("s")/R/A, where x/B="1" update x/C { delete D }',
        QuerySyntaxError, "expected 'name' at offset 23, found 'where'",
    ),
    "string-as-action": (
        U, _S + '{ "D" }',
        QuerySyntaxError, "expected 'kw' at offset 49, found 'D'",
    ),
    "delete-nothing": (
        U, _S + "{ delete }",
        QuerySyntaxError, "expected 'name' at offset 56, found '}'",
    ),
    # bindings
    "unbound-root": (
        V, '<v>{for x in y/A return <e>{x/B}</e>}</v>',
        UnboundVariable, "variable 'y' is not bound (offset 13)",
    ),
    "unbound-root-with-sigil": (
        V, '<v>{for x in doc("s")/R/A, y in $z/A return <e>{x/B}</e>}</v>',
        UnboundVariable, "variable 'z' is not bound (offset 32)",
    ),
    "view-call-in-view": (
        V, '<v>{for x in view(v)/v/e return <e>{x/B}</e>}</v>',
        UnboundVariable, "variable 'view' is not bound (offset 13)",
    ),
    "doc-without-path": (
        U, 'for x in doc("s") where x/B="1" update x/C { delete D }',
        QuerySyntaxError, "doc('s') must be followed by a path",
    ),
    "variable-without-path": (
        V, '<v>{for x in doc("s")/R/A, y in x return <e>{y/B}</e>}</v>',
        QuerySyntaxError, "binding via 'x' needs a non-empty path",
    ),
    "view-call-wrong-name": (
        U, 'for r in view(Q)/P/e where r/A="1" update r/C { delete D }',
        QuerySyntaxError, "view(Q) must be followed by /Q/...",
    ),
    "duplicate-variable": (
        V, '<v>{for x in doc("s")/R/A, x in x/B return <e>{x/B}</e>}</v>',
        DuplicateVariable, "variable 'x' bound twice",
    ),
    "repeat-in-binding": (
        V, '<v>{for x in doc("s")/R/A/R return <e>{x/B}</e>}</v>',
        NonDistinctPathNames, "binding path: names must be pairwise distinct: R/A/R",
    ),
    # conditions, returns and targets
    "unbound-condition": (
        V, '<v>{for x in doc("s")/R/A where y/B="1" return <e>{x/B}</e>}</v>',
        UnboundVariable, "variable 'y' is not bound",
    ),
    "repeat-in-condition": (
        V, '<v>{for x in doc("s")/R/A where x/B/B="1" return <e>{x/B}</e>}</v>',
        NonDistinctPathNames, "condition path: names must be pairwise distinct: B/B",
    ),
    "unbound-return": (
        V, '<v>{for x in doc("s")/R/A return <e>{y/B}</e>}</v>',
        UnboundVariable, "variable 'y' is not bound",
    ),
    "repeat-in-return": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/B/C/B}</e>}</v>',
        NonDistinctPathNames, "return path: names must be pairwise distinct: B/C/B",
    ),
    "unbound-target": (
        U, 'for x in doc("s")/R/A where x/B="1" update q/C { delete D }',
        UnboundVariable, "variable 'q' is not bound",
    ),
    "repeat-in-target": (
        U, 'for x in doc("s")/R/A where x/B="1" update x/C/C { delete D }',
        NonDistinctPathNames, "target path: names must be pairwise distinct: C/C",
    ),
    # the shape of a view
    "no-return": (
        V, '<v>{for x in doc("s")/R/A return <e></e>}</v>',
        QuerySyntaxError, "a view needs at least one return expression",
    ),
    "mismatched-wrapper": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/B}</f>}</v>',
        QuerySyntaxError, "mismatched close tag: expected </e>, got </f>",
    ),
    "mismatched-root": (
        V, '<v>{for x in doc("s")/R/A return <e>{x/B}</e>}</w>',
        QuerySyntaxError, "mismatched close tag: expected </v>, got </w>",
    ),
    "trailing-view": (
        V, _W + " x",
        QuerySyntaxError, "trailing input after the view definition",
    ),
    "duplicate-return": (
        V, '<v>{for x in doc("s")/R/A, y in x/C return <e>{x/B}{y/B}</e>}</v>',
        DuplicateReturnName, "return expressions '{x/B}' and '{y/B}' both end in 'B'",
    ),
    "root-collides": (
        V, '<A>{for x in doc("s")/R/A return <e>{x/B}</e>}</A>',
        QuerySyntaxError, "view root name 'A' collides with a source element name",
    ),
    "wrapper-collides": (
        V, '<v>{for x in doc("s")/R/A return <B>{x/B}</B>}</v>',
        QuerySyntaxError, "wrapper name 'B' collides with a source element name",
    ),
    "root-is-wrapper": (
        V, '<e>{for x in doc("s")/R/A return <e>{x/B}</e>}</e>',
        QuerySyntaxError, "view root and wrapper must use different names",
    ),
    # the shape of an update
    "no-opener": (
        U, _S + "delete D",
        QuerySyntaxError, "expected '{' or '(' before the update action",
    ),
    "wrong-closer": (
        U, _S + "{ delete D );",
        QuerySyntaxError, "expected the statement to end with '}'",
    ),
    "trailing-update": (
        U, _S + "{ delete D } }",
        QuerySyntaxError, "trailing input after the update statement",
    ),
    "unknown-action": (
        U, _S + "{ where D }",
        QuerySyntaxError, "unknown action 'where'",
    ),
    "no-payload": (
        U, _S + "{ insert D }",
        QuerySyntaxError, "expected an XML payload at offset 56",
    ),
    "malformed-payload": (
        U, _S + "{ insert <D>1</E> }",
        QuerySyntaxError,
        "malformed XML payload at offset 56: mismatched tag: line 1, column 6",
    ),
    "unclosed-payload": (
        U, _S + "( delete <D>1 )",
        QuerySyntaxError,
        "malformed XML payload at offset 56: no element found: line 1, column 4",
    ),
    "payload-attribute": (
        U, _S + '{ insert <D a="1">x</D> }',
        UnsupportedFeature, "attributes are not supported (element 'D')",
    ),
    "mixed-levels": (
        U, 'for x in doc("s")/R/A, r in v/e where x/B="1" update x/C { delete D }',
        LevelMismatch, "an update cannot mix doc(...) and view-rooted bindings",
    ),
    "view-level-join": (
        U, "for r in v/e where r/A=r/B update r/C { delete D }",
        QuerySyntaxError,
        "a view-level update takes exactly one string-equality condition",
    ),
    "view-level-parent-step": (
        U, 'for r in v/e where r/A="1" update r/C/.. { delete C }',
        QuerySyntaxError, "view-level target paths cannot end in '..'",
    ),
    "two-views": (
        U, 'for r in v/e, s in w/f where r/B="1" update r/C { delete D }',
        QuerySyntaxError, "all view-rooted bindings must address the same view",
    ),
}


@pytest.mark.parametrize("parse,text,exc,message", CASES.values(), ids=CASES.keys())
def test_exact_error(parse, text, exc, message):
    with pytest.raises(XviewError) as info:
        parse(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_payload_text_is_not_lexed():
    # characters the query lexer rejects are plain text inside a payload
    u = parse_update(_S + '{ insert <D>!²"1.</D> }')
    assert u.action.tree.text == '!²"1.'


# characters a mutation inserts: the punctuation, quotes, dots and blanks of
# the dialect, letters and digits, and characters no token may start with
_ALPHABET = '<>{}()/,=$"." \n\tax_Z017!²é&;-'


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.choice(("drop", "insert", "replace"))
        if edit == "insert" or at == len(chars):
            chars.insert(at, rng.choice(_ALPHABET))
        elif edit == "drop":
            del chars[at]
        else:
            chars[at] = rng.choice(_ALPHABET)
    return "".join(chars)


def test_mutated_texts_parse_or_raise_an_xview_error():
    rng = random.Random(2024)
    parsed = 0
    for _ in range(100):
        case = random_case(rng)
        for parse, text in ((V, case.view_text), (U, case.update_text)):
            for _ in range(15):
                try:
                    parse(_mutate(rng, text))
                    parsed += 1
                except XviewError:
                    pass
    # some mutations still parse (a blank dropped or a name renamed)
    assert parsed > 0
