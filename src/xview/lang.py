"""Grammar and parsers for the view-definition and update dialects.

The concrete grammar is small: identifiers are alphanumeric (a leading
``$`` sigil on variables is accepted and dropped), keywords are lowercase,
string literals are double-quoted with no escapes, and the update action is
written in braces or parentheses (braces are canonical on render).

The action ends the statement, so an ``insert`` or ``delete`` payload is
all the text from its ``<`` up to the statement's closing delimiter, and
the document parser alone reads it: it is one element, which may be
preceded by an XML declaration, as a document may.  A payload that is not
well-formed is a syntax error of the statement.

View definitions look like::

    <v>{ for x in doc("r")/r/A, y in x/C
         where y/D=z and z="1"
         return <e>{x/B}{x/C}</e> }</v>

Update statements look like::

    for r in view(Q)/Q/use
    where r/title="IS"
    update r/auths { insert <aName>Susan</aName> }

A view-level update's for-clause is rooted at the view (either the bare
view name or ``view(Name)/Name/...``); a source-level update's roots are
``doc("name")``.  A source-level target path may end with ``/..`` to
address the parents of the located trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    CyclicBinding,
    DuplicateReturnName,
    DuplicateVariable,
    LevelMismatch,
    MalformedXml,
    NonDistinctPathNames,
    QuerySyntaxError,
    UnboundVariable,
    UnresolvableVariable,
)
from .xml_model import (
    DocRoot,
    QualifiedPath,
    VIEW_ROOT,
    VarRoot,
    ViewRootMark,
    XmlTree,
    parse_document,
    serialize,
    value_equal,
)

KEYWORDS = frozenset(
    {"for", "in", "where", "and", "return", "update", "insert", "delete"}
)

VarPath = tuple[str, tuple[str, ...]]  # (variable, relative name sequence)


# ----------------------------------------------------------------------
# Statement types

@dataclass(frozen=True)
class Binding:
    var: str
    source: QualifiedPath


@dataclass(frozen=True)
class PathEqPath:
    lhs: VarPath
    rhs: VarPath


@dataclass(frozen=True)
class PathEqString:
    lhs: VarPath
    value: str


ConditionAtom = Union[PathEqPath, PathEqString]


def atom_sides(atom: ConditionAtom) -> tuple[VarPath, ...]:
    """The variable paths an atom compares: two for a join, one otherwise."""
    return (atom.lhs, atom.rhs) if isinstance(atom, PathEqPath) else (atom.lhs,)


@dataclass(frozen=True)
class ReturnExpr:
    var: str
    gamma: tuple[str, ...]  # may be empty: the binding itself is returned


@dataclass(frozen=True)
class ViewDef:
    view_root: str
    wrapper: str
    bindings: tuple[Binding, ...]
    conditions: tuple[ConditionAtom, ...]
    returns: tuple[ReturnExpr, ...]


class _TreeAction:
    """An action carrying an XML payload; equal on the payload's value tree."""

    __slots__ = ("tree",)
    verb = ""

    def __init__(self, tree: XmlTree) -> None:
        self.tree = tree

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and value_equal(self.tree, other.tree)

    def __hash__(self) -> int:
        return hash((self.verb, serialize(self.tree)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({serialize(self.tree)})"


class InsertTree(_TreeAction):
    """Insert a copy of the payload as the last child of each target node."""

    __slots__ = ()
    verb = "insert"


class DeleteTree(_TreeAction):
    """Delete every child of each target node that is value-equal to the payload."""

    __slots__ = ()
    verb = "delete"


@dataclass(frozen=True)
class DeleteLabel:
    """Delete every child of each target node bearing the label."""

    label: str


@dataclass(frozen=True)
class DeleteBinding:
    """Delete exactly the tree bound to the variable, not same-labeled siblings."""

    var: str


Action = Union[InsertTree, DeleteTree, DeleteLabel, DeleteBinding]


@dataclass(frozen=True)
class UpdateTarget:
    var: str
    path: tuple[str, ...]
    parent_step: bool = False  # a trailing /.. on the target path


@dataclass(frozen=True)
class UpdateStatement:
    level: str  # "view" | "source"
    bindings: tuple[Binding, ...]
    conditions: tuple[ConditionAtom, ...]
    target: UpdateTarget
    action: Action


# ----------------------------------------------------------------------
# Lexer

_PUNCT = "<>{}()/,=$"
# After blanks: a string literal, "..", a punctuation mark or a word.  \s
# and \w match what str.isspace and str.isalnum accept (and "_"); a word
# whose first character is not a letter or "_" is rejected by the lexer.
_TOKEN = re.compile(r'\s*(?:("[^"]*")|(\.\.|[' + re.escape(_PUNCT) + r"])|(\w+))?")
_CALL = re.compile(r"\s*\(")


class _Lexer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self._tok: Optional[tuple[str, str, int]] = None

    def _lex(self) -> tuple[str, str, int]:
        m = _TOKEN.match(self.text, self.pos)
        string, punct, word = m.groups()
        start = m.start(m.lastindex) if m.lastindex else m.end()
        self.pos = m.end()
        if string is not None:
            return ("str", string[1:-1], start)
        if punct is not None:
            return ("punct", punct, start)
        if word is not None and (word[0].isalpha() or word[0] == "_"):
            return ("kw" if word in KEYWORDS else "name", word, start)
        if start >= len(self.text):
            return ("eof", "", start)
        if self.text[start] == '"':
            raise QuerySyntaxError(f"unterminated string at offset {start}")
        raise QuerySyntaxError(
            f"unexpected character {self.text[start]!r} at offset {start}"
        )

    def peek(self) -> tuple[str, str, int]:
        if self._tok is None:
            self._tok = self._lex()
        return self._tok

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self._tok = None
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            self.next()
            return True
        return False

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        k, v, pos = self.peek()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise QuerySyntaxError(f"expected {want!r} at offset {pos}, found {v!r}")
        self.next()
        return v

    def expect_name(self) -> str:
        # variables and element names share the lexical class; $ marks
        # variables and is optional
        self.accept("punct", "$")
        return self.expect("name")

    def take_to_last(self) -> str:
        """Consume the raw text from the next token up to the input's last
        non-blank character, which is left to be lexed next."""
        start = self.peek()[2]
        self.pos, self._tok = len(self.text.rstrip()) - 1, None
        return self.text[start : self.pos]


# ----------------------------------------------------------------------
# Shared parsing pieces

def _check_path(names: tuple[str, ...], where: str) -> tuple[str, ...]:
    if len(set(names)) != len(names):
        raise NonDistinctPathNames(
            f"{where}: names must be pairwise distinct: " + "/".join(names)
        )
    return names


def _parse_step_names(lx: _Lexer) -> tuple[str, ...]:
    names = []
    while lx.accept("punct", "/"):
        names.append(lx.expect("name"))
    return tuple(names)


def _parse_binding_source(lx: _Lexer, bound: set[str], level: str) -> QualifiedPath:
    kind, value, pos = lx.peek()
    # doc( and view( call the root functions; a bare doc or view is a name
    call = kind == "name" and _CALL.match(lx.text, lx.pos) is not None
    if call and value == "doc":
        lx.next()
        lx.expect("punct", "(")
        doc = lx.expect("str")
        lx.expect("punct", ")")
        steps = _parse_step_names(lx)
        if not steps:
            raise QuerySyntaxError(f"doc({doc!r}) must be followed by a path")
        return QualifiedPath(DocRoot(doc), _check_path(steps, "binding path"))
    if call and value == "view" and level == "update":
        lx.next()
        lx.expect("punct", "(")
        name = lx.expect("name")
        lx.expect("punct", ")")
        steps = _parse_step_names(lx)
        if not steps or steps[0] != name:
            raise QuerySyntaxError(
                f"view({name}) must be followed by /{name}/..."
            )
        return QualifiedPath(VIEW_ROOT, _check_path(steps, "binding path"))
    first = lx.expect_name()
    steps = _parse_step_names(lx)
    if first in bound:
        if not steps:
            raise QuerySyntaxError(f"binding via {first!r} needs a non-empty path")
        return QualifiedPath(VarRoot(first), _check_path(steps, "binding path"))
    if level == "update":
        # an unbound leading name roots the path at the view instance
        return QualifiedPath(
            VIEW_ROOT, _check_path((first,) + steps, "binding path")
        )
    raise UnboundVariable(f"variable {first!r} is not bound (offset {pos})")


def _parse_bindings(lx: _Lexer, level: str) -> tuple[Binding, ...]:
    bindings: list[Binding] = []
    bound: set[str] = set()
    while True:
        var = lx.expect_name()
        if var in bound:
            raise DuplicateVariable(f"variable {var!r} bound twice")
        lx.expect("kw", "in")
        source = _parse_binding_source(lx, bound, level)
        bindings.append(Binding(var, source))
        bound.add(var)
        if not lx.accept("punct", ","):
            break
    return tuple(bindings)


def _parse_var_path(lx: _Lexer, bound: set[str]) -> VarPath:
    var = lx.expect_name()
    if var not in bound:
        raise UnboundVariable(f"variable {var!r} is not bound")
    names = _parse_step_names(lx)
    if names:
        _check_path(names, "condition path")
    return (var, names)


def _parse_atoms(lx: _Lexer, bound: set[str]) -> tuple[ConditionAtom, ...]:
    atoms: list[ConditionAtom] = []
    while True:
        lhs = _parse_var_path(lx, bound)
        lx.expect("punct", "=")
        if lx.peek()[0] == "str":
            atoms.append(PathEqString(lhs, lx.next()[1]))
        else:
            atoms.append(PathEqPath(lhs, _parse_var_path(lx, bound)))
        if not lx.accept("kw", "and"):
            break
    return tuple(atoms)


# ----------------------------------------------------------------------
# View definitions

def parse_view_def(text: str) -> ViewDef:
    """Parse a view definition, checking all structural invariants."""
    lx = _Lexer(text)
    lx.expect("punct", "<")
    view_root = lx.expect("name")
    lx.expect("punct", ">")
    lx.expect("punct", "{")
    lx.expect("kw", "for")
    bindings = _parse_bindings(lx, level="view")
    bound = {b.var for b in bindings}
    conditions: tuple[ConditionAtom, ...] = ()
    if lx.accept("kw", "where"):
        conditions = _parse_atoms(lx, bound)
    lx.expect("kw", "return")
    lx.expect("punct", "<")
    wrapper = lx.expect("name")
    lx.expect("punct", ">")
    returns: list[ReturnExpr] = []
    while lx.accept("punct", "{"):
        var = lx.expect_name()
        if var not in bound:
            raise UnboundVariable(f"variable {var!r} is not bound")
        gamma = _parse_step_names(lx)
        if gamma:
            _check_path(gamma, "return path")
        lx.expect("punct", "}")
        returns.append(ReturnExpr(var, gamma))
    if not returns:
        raise QuerySyntaxError("a view needs at least one return expression")
    _expect_close_tag(lx, wrapper)
    lx.expect("punct", "}")
    _expect_close_tag(lx, view_root)
    if lx.peek()[0] != "eof":
        raise QuerySyntaxError("trailing input after the view definition")

    view = ViewDef(view_root, wrapper, bindings, conditions, tuple(returns))
    _check_view(view)
    return view


def _expect_close_tag(lx: _Lexer, name: str) -> None:
    lx.expect("punct", "<")
    lx.expect("punct", "/")
    got = lx.expect("name")
    if got != name:
        raise QuerySyntaxError(f"mismatched close tag: expected </{name}>, got </{got}>")
    lx.expect("punct", ">")


def _check_view(view: ViewDef) -> None:
    seen: dict[str, str] = {}
    for ret in view.returns:
        name = return_last_name(view, ret)
        if name in seen:
            raise DuplicateReturnName(
                f"return expressions {seen[name]!r} and "
                f"{_render_return(ret)!r} both end in {name!r}"
            )
        seen[name] = _render_return(ret)

    source_names = set()
    for b in view.bindings:
        source_names.update(b.source.steps)
    for atom in view.conditions:
        for _var, names in atom_sides(atom):
            source_names.update(names)
    for ret in view.returns:
        source_names.update(ret.gamma)
    for special, role in ((view.view_root, "view root"), (view.wrapper, "wrapper")):
        if special in source_names:
            raise QuerySyntaxError(
                f"{role} name {special!r} collides with a source element name"
            )
    if view.view_root == view.wrapper:
        raise QuerySyntaxError("view root and wrapper must use different names")


def _render_return(ret: ReturnExpr) -> str:
    return "{" + "/".join((ret.var,) + ret.gamma) + "}"


def binding_of(bindings: tuple[Binding, ...], var: str) -> Binding:
    """Look up a variable's binding in a for-clause."""
    for b in bindings:
        if b.var == var:
            return b
    raise UnresolvableVariable(f"variable {var!r} is not bound")


def normalize_path(stmt, var: str, rel: tuple[str, ...] = ()) -> QualifiedPath:
    """Expand a variable-relative path through the for-clause binding chain.

    Variables are replaced by their binding paths until the path is rooted
    at a document or at the view; the resulting name sequence concatenates
    the binding segments in chain order.
    """
    names = tuple(rel)
    cur = var
    seen = set()
    while True:
        if cur in seen:
            raise CyclicBinding(f"binding chain through {var!r} loops")
        seen.add(cur)
        source = binding_of(stmt.bindings, cur).source
        names = source.steps + names
        if isinstance(source.root, VarRoot):
            cur = source.root.var
            continue
        return QualifiedPath(source.root, names)


def return_last_name(view: ViewDef, ret: ReturnExpr) -> str:
    """The element name a return expression exposes in the view.

    For a non-empty path it is the path's last name; a bare ``{x}`` exposes
    the last name of x's fully expanded binding path.
    """
    if ret.gamma:
        return ret.gamma[-1]
    return normalize_path(view, ret.var).steps[-1]


# ----------------------------------------------------------------------
# Update statements

def parse_update(text: str) -> UpdateStatement:
    """Parse a view-level or source-level update statement.

    The level is inferred from the for-clause roots: ``doc("...")`` roots
    make a source-level statement, view-rooted paths (a bare view name or
    ``view(Name)/Name/...``) a view-level one.
    """
    lx = _Lexer(text)
    lx.expect("kw", "for")
    bindings = _parse_bindings(lx, level="update")
    bound = {b.var for b in bindings}
    lx.expect("kw", "where")
    conditions = _parse_atoms(lx, bound)

    lx.expect("kw", "update")
    tvar = lx.expect_name()
    if tvar not in bound:
        raise UnboundVariable(f"variable {tvar!r} is not bound")
    tpath: list[str] = []
    parent_step = False
    while lx.accept("punct", "/"):
        if lx.accept("punct", ".."):
            parent_step = True
            break
        tpath.append(lx.expect("name"))
    if tpath:
        _check_path(tuple(tpath), "target path")
    target = UpdateTarget(tvar, tuple(tpath), parent_step)

    opener = lx.next()
    if opener[:2] not in (("punct", "{"), ("punct", "(")):
        raise QuerySyntaxError("expected '{' or '(' before the update action")
    closer = "}" if opener[1] == "{" else ")"
    if not text.rstrip().endswith(closer):
        raise QuerySyntaxError(f"expected the statement to end with {closer!r}")
    action = _parse_action(lx, bindings, target)
    lx.expect("punct", closer)
    if lx.peek()[0] != "eof":
        raise QuerySyntaxError("trailing input after the update statement")

    level = _statement_level(bindings)
    stmt = UpdateStatement(level, bindings, conditions, target, action)
    _check_update(stmt)
    return stmt


def _parse_action(
    lx: _Lexer, bindings: tuple[Binding, ...], target: UpdateTarget
) -> Action:
    kw = lx.expect("kw")
    if kw == "insert":
        return InsertTree(_parse_payload(lx))
    if kw != "delete":
        raise QuerySyntaxError(f"unknown action {kw!r}")
    if lx.peek()[:2] == ("punct", "<"):
        return DeleteTree(_parse_payload(lx))
    label = lx.expect("name")
    # "update x/.. ( delete L )" with L the last name of x's binding path
    # deletes the binding itself rather than all same-labeled siblings
    if target.parent_step and not target.path:
        source = binding_of(bindings, target.var).source
        if source.steps and source.steps[-1] == label:
            return DeleteBinding(target.var)
    return DeleteLabel(label)


def _parse_payload(lx: _Lexer) -> XmlTree:
    # the action's closing delimiter ends the input (parse_update checks
    # it), so the payload is everything up to that delimiter; rstrip drops
    # the blanks the lexer skips there, a wider class than XML whitespace
    kind, value, pos = lx.peek()
    if (kind, value) != ("punct", "<"):
        raise QuerySyntaxError(f"expected an XML payload at offset {pos}")
    try:
        return parse_document(lx.take_to_last().rstrip())
    except MalformedXml as exc:
        raise QuerySyntaxError(f"malformed XML payload at offset {pos}: {exc}") from None


def _statement_level(bindings: tuple[Binding, ...]) -> str:
    # the first binding is always doc(...)- or view-rooted
    roots = [b.source.root for b in bindings if not isinstance(b.source.root, VarRoot)]
    if all(isinstance(r, DocRoot) for r in roots):
        return "source"
    if all(isinstance(r, ViewRootMark) for r in roots):
        return "view"
    raise LevelMismatch("an update cannot mix doc(...) and view-rooted bindings")


def _check_update(stmt: UpdateStatement) -> None:
    if stmt.level == "view":
        if len(stmt.conditions) != 1 or not isinstance(
            stmt.conditions[0], PathEqString
        ):
            raise QuerySyntaxError(
                "a view-level update takes exactly one string-equality condition"
            )
        if stmt.target.parent_step:
            raise QuerySyntaxError("view-level target paths cannot end in '..'")
        view_names = {
            b.source.steps[0]
            for b in stmt.bindings
            if isinstance(b.source.root, ViewRootMark)
        }
        if len(view_names) > 1:
            raise QuerySyntaxError(
                "all view-rooted bindings must address the same view"
            )


# ----------------------------------------------------------------------
# Rendering

def render_update(stmt: UpdateStatement) -> str:
    """Pretty-print an update statement; parse_update inverts this exactly."""
    fors = ", ".join(
        f"{b.var} in {_render_source(b.source)}" for b in stmt.bindings
    )
    lines = [f"for {fors}"]
    lines.append("where " + " and ".join(_render_atom(a) for a in stmt.conditions))
    tgt = _render_target(stmt.target)
    lines.append(f"update {tgt} {{ {_render_action(stmt)} }}")
    return "\n".join(lines)


def _render_source(qp: QualifiedPath) -> str:
    steps = "/".join(qp.steps)
    if isinstance(qp.root, DocRoot):
        return f'doc("{qp.root.doc}")/{steps}'
    if isinstance(qp.root, VarRoot):
        return f"{qp.root.var}/{steps}" if steps else qp.root.var
    return steps


def _render_var_path(vp: VarPath) -> str:
    var, names = vp
    return "/".join((var,) + names)


def _render_atom(atom: ConditionAtom) -> str:
    if isinstance(atom, PathEqString):
        return f'{_render_var_path(atom.lhs)}="{atom.value}"'
    return f"{_render_var_path(atom.lhs)}={_render_var_path(atom.rhs)}"


def _render_target(target: UpdateTarget) -> str:
    out = "/".join((target.var,) + target.path)
    if target.parent_step:
        out += "/.."
    return out


def _render_action(stmt: UpdateStatement) -> str:
    action = stmt.action
    if isinstance(action, _TreeAction):
        return f"{action.verb} {serialize(action.tree)}"
    if isinstance(action, DeleteLabel):
        return f"delete {action.label}"
    if isinstance(action, DeleteBinding):
        source = binding_of(stmt.bindings, action.var).source
        return f"delete {source.steps[-1]}"
    raise TypeError(f"unknown action {action!r}")
