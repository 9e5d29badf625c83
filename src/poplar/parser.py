"""Recursive-descent parser producing the model's declarations.

Declarations, statements and expressions parse straight into the model's
forms. Names inside annotations stay textual here (see `MethodSpec`); the
resolver binds them in place against the merged declaration set. The
parser is total per file: the first error aborts the file with a
positioned SyntaxIssue.
"""

from __future__ import annotations

from typing import Optional

from .lexer import LexError, Token, tokenize
from .model import (
    ArgDecl, AssignStmt, BlockStmt, CallExpr, ClassModel, Expr, ExprStmt,
    ExternalDecl, FieldAccessExpr, FieldDecl, LabelDecl, LiteralExpr,
    MethodSpec, NameExpr, NewExpr, Pos, ProtectStmt, ProtocolDecl, Query,
    QueryStmt, Record, ResourceNode, ReturnStmt, Stmt, SuperExpr, ThisExpr,
    UniquenessKind, VarDeclStmt,
)

# Blocks, argument lists and resource trees nest at most this deep, counted
# together. Deeper input is a syntax error rather than a RecursionError here
# or in one of the later recursive walks over the same tree.
MAX_NESTING = 100

UNIQUENESS_KEYWORDS = {
    "maintain": UniquenessKind.MAINTAIN,
    "maintainr": UniquenessKind.MAINTAIN_RETAINS,
    "unique": UniquenessKind.UNIQUE,
    "uniquer": UniquenessKind.UNIQUE_RETAINS,
}


class SyntaxIssue(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(message)
        self.message = message
        self.pos = pos


# -- annotation forms whose names bind only once every unit is parsed --------

class RawCondition(Record):
    """One condition of a conjunct, before its names resolve."""

    _compared = ("kind", "name", "source", "target", "residence", "pos")

    def __init__(self, kind: str,  # "invariant-label" | "invariant-state" | "add" | "transition"
                 name: str,  # label or protocol reference text (possibly qualified)
                 source: str = "", target: str = "",
                 residence: Optional[list[list[str]]] = None, pos: Optional[Pos] = None):
        self.kind = kind
        self.name = name
        self.source = source
        self.target = target
        self.residence = [] if residence is None else residence
        self.pos = Pos() if pos is None else pos


class RawConjunct(Record):
    """A subject and its conditions, before resolution."""

    _compared = ("subject", "conditions", "pos")

    def __init__(self, subject: str, conditions: list[RawCondition],
                 pos: Optional[Pos] = None):
        self.subject = subject
        self.conditions = conditions
        self.pos = Pos() if pos is None else pos


class RawTarget(Record):
    """A `mutates` target, before resolution."""

    _compared = ("root", "name", "path", "pos")

    def __init__(self, root: str,  # "this" | "any" | "name"
                 name: str,  # type name for any, variable/field name otherwise
                 path: Optional[list[str]] = None, pos: Optional[Pos] = None):
        self.root = root
        self.name = name
        self.path = [] if path is None else path
        self.pos = Pos() if pos is None else pos


class Parser:
    def __init__(self, text: str):
        try:
            self.tokens = tokenize(text)
        except LexError as e:
            raise SyntaxIssue(e.message, e.pos) from e
        self.i = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def at_keyword(self, word: str) -> bool:
        return self.at("keyword", word)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            got = t.text or t.kind
            raise SyntaxIssue(f"expected '{want}', found '{got}'", t.pos)
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise SyntaxIssue(f"expected identifier, found '{t.text or t.kind}'", t.pos)
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def int_value(self, t: Token) -> int:
        """The value of an int token. The lexer takes any `str.isdigit` run,
        and some of those characters, such as '²', are not decimal digits."""
        try:
            return int(t.text)
        except ValueError:
            raise SyntaxIssue(f"invalid integer literal '{t.text}'", t.pos) from None

    def nest(self) -> None:
        """Enter the level that the token just taken opens."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxIssue(f"nesting deeper than {MAX_NESTING} levels",
                              self.tokens[self.i - 1].pos)

    # -- entry ---------------------------------------------------------------

    def parse_program(self) -> list[ClassModel]:
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_type_decl())
        return decls

    def parse_type_decl(self) -> ClassModel:
        pos = self.peek().pos
        is_abstract = self.accept("keyword", "abstract") is not None
        if self.accept("keyword", "interface"):
            is_interface = True
        else:
            self.expect("keyword", "class")
            is_interface = False
        name = self.expect_ident().text
        superclass = None
        interfaces: list[str] = []
        if self.accept("keyword", "extends"):
            if is_interface:
                interfaces.append(self.expect_ident().text)
                while self.accept(","):
                    interfaces.append(self.expect_ident().text)
            else:
                superclass = self.expect_ident().text
        if self.accept("keyword", "implements"):
            interfaces.append(self.expect_ident().text)
            while self.accept(","):
                interfaces.append(self.expect_ident().text)
        decl = ClassModel(name, superclass, tuple(interfaces), is_interface, pos=pos)
        self.expect("{")
        while not self.accept("}"):
            self.parse_member(decl)
        decl.is_abstract = is_abstract or any(m.is_abstract for m in decl.methods)
        return decl

    # -- members ---------------------------------------------------------------

    def parse_member(self, decl: ClassModel) -> None:
        t = self.peek()
        if self.at_keyword("labels"):
            pos, carriers, names = self.parse_carried_names()
            decl.labels.append(LabelDecl(decl.name, carriers, names, pos))
            return
        if self.at_keyword("protocols"):
            pos, carriers, names = self.parse_carried_names()
            decl.protocols.extend(ProtocolDecl(decl.name, carriers, n, (), pos) for n in names)
            return
        if self.at_keyword("resources"):
            decl.resources += self.parse_resources()
            return
        if self.at_keyword("external"):
            decl.externals.append(self.parse_external(decl.name))
            return
        if self.at_keyword("precedence"):
            self.next()
            decl.precedence = self.int_value(self.expect("int"))
            self.expect(";")
            return
        if t.kind == "keyword" and t.text not in (
            "static", "final", "abstract", "managed", *UNIQUENESS_KEYWORDS,
        ):
            raise SyntaxIssue(f"unknown annotation keyword '{t.text}'", t.pos)
        self.parse_field_or_method(decl)
        return

    def parse_carried_names(self) -> tuple[Pos, tuple[str, ...], tuple[str, ...]]:
        """A `labels` or `protocols` line: the keyword's position, the
        carrier types and the declared names."""
        pos = self.next().pos
        carriers = self.parse_carrier_list()
        names = [self.expect_ident().text]
        while self.accept(","):
            names.append(self.expect_ident().text)
        self.expect(";")
        return pos, carriers, tuple(names)

    def parse_carrier_list(self) -> tuple[str, ...]:
        carriers: list[str] = []
        if self.accept("("):
            carriers.append(self.parse_type_name())
            while self.accept(","):
                carriers.append(self.parse_type_name())
            self.expect(")")
        return tuple(carriers)

    def parse_type_name(self) -> str:
        t = self.peek()
        if t.kind == "ident":
            return self.next().text
        raise SyntaxIssue(f"expected type name, found '{t.text or t.kind}'", t.pos)

    def parse_resources(self) -> tuple[ResourceNode, ...]:
        self.expect("keyword", "resources")
        out = [self.parse_resource_def()]
        while self.accept(","):
            out.append(self.parse_resource_def())
        self.expect(";")
        return tuple(out)

    def parse_resource_def(self) -> ResourceNode:
        name = self.expect_ident().text
        if not self.accept("{"):
            return ResourceNode(name)
        self.nest()
        children = [self.parse_resource_def()]
        while self.accept(","):
            children.append(self.parse_resource_def())
        self.expect("}")
        self.depth -= 1
        return ResourceNode(name, tuple(children))

    def parse_external(self, owner: str) -> ExternalDecl:
        pos = self.expect("keyword", "external").pos
        target = self.expect_ident().text
        if self.accept("."):
            method = MethodSpec(self.expect_ident().text, owner, "void", (), pos=pos)
        else:
            method = MethodSpec(target, owner, target, (), is_constructor=True, pos=pos)
        self.parse_signature(method)
        self.expect(";")
        return ExternalDecl(target, method, owner, pos)

    def parse_params(self) -> tuple[ArgDecl, ...]:
        args: list[ArgDecl] = []
        if self.at(")"):
            return ()
        while True:
            kind = UniquenessKind.NORMAL
            t = self.peek()
            if t.kind == "keyword" and t.text in UNIQUENESS_KEYWORDS:
                kind = UNIQUENESS_KEYWORDS[self.next().text]
            ty = self.parse_type_name()
            name = self.expect_ident()
            args.append(ArgDecl(kind, ty, name.text, name.pos))
            if not self.accept(","):
                break
        return tuple(args)

    def parse_field_or_method(self, decl: ClassModel) -> None:
        pos = self.peek().pos
        is_static = is_final = is_abstract = False
        managed = False
        managed_resource: Optional[tuple[str, ...]] = None
        kind = UniquenessKind.NORMAL
        while True:
            t = self.peek()
            if t.kind != "keyword":
                break
            if t.text == "static":
                self.next()
                is_static = True
            elif t.text == "final":
                self.next()
                is_final = True
            elif t.text == "abstract":
                self.next()
                is_abstract = True
            elif t.text == "managed":
                self.next()
                managed = True
                if self.accept("("):
                    managed_resource = tuple(self.parse_dotted_path())
                    self.expect(")")
            elif t.text in UNIQUENESS_KEYWORDS:
                self.next()
                kind = UNIQUENESS_KEYWORDS[t.text]
            else:
                break
        result_labels = self.parse_dotted_names() if self.accept("+") else ()
        first = self.parse_type_name()
        # A constructor is the bare class name followed by a parameter list.
        is_ctor = self.at("(") and first == decl.name and not result_labels
        name = first if is_ctor else self.expect_ident().text
        if is_ctor or self.at("("):
            method = MethodSpec(name, decl.name, first, (), is_ctor, is_abstract,
                                is_static, kind, result_labels, pos=pos)
            self.parse_signature(method)
            if not self.accept(";"):
                self.expect("{")
                method.body = self.parse_statements()
            decl.methods.append(method)
            return
        fld = FieldDecl(name, first, decl.name, kind, managed, managed_resource,
                        is_static, is_final, pos=pos)
        if self.accept("+"):
            fld.labels = self.parse_dotted_names()
        if self.accept("="):
            fld.initializer = self.parse_expr()
        self.expect(";")
        decl.fields.append(fld)

    def parse_signature(self, method: MethodSpec) -> None:
        """The parameter list and the annotations after it."""
        self.expect("(")
        method.args = self.parse_params()
        self.expect(")")
        local_mutations: list[tuple[tuple[str, ...], Pos]] = []
        mutates: list[RawTarget] = []
        conjuncts: list[RawConjunct] = []
        groups: list[tuple[RawConjunct, ...]] = []
        while True:
            t = self.peek()
            if t.kind in ("{", ";", "eof"):
                break
            if t.kind == ",":
                self.next()
                continue
            if t.kind == "[":
                self.next()
                self.expect("!")
                local_mutations.append(self.parse_local_mutation())
                while self.accept(","):
                    self.accept("!")  # a repeated bang is tolerated
                    local_mutations.append(self.parse_local_mutation())
                self.expect("]")
                continue
            if self.at_keyword("mutates"):
                self.next()
                mutates.append(self.parse_target())
                while self.accept(","):
                    mutates.append(self.parse_target())
                self.expect(":")
                continue
            if t.kind == "(":
                self.next()
                group = [self.parse_conjunct()]
                while self.accept(","):
                    group.append(self.parse_conjunct())
                self.expect(")")
                self.expect("?")
                groups.append(tuple(group))
                continue
            if self._at_conjunct_start():
                conjuncts.append(self.parse_conjunct())
                continue
            raise SyntaxIssue(
                f"unknown annotation keyword '{t.text or t.kind}'", t.pos)
        method.local_mutations = tuple(local_mutations)
        method.mutates = tuple(mutates)
        method.conjuncts = tuple(conjuncts)
        method.optional_groups = tuple(groups)

    def _at_conjunct_start(self) -> bool:
        t = self.peek()
        if t.kind == "ident" or (t.kind == "keyword" and t.text in ("this", "result")):
            return self.peek(1).kind == ":"
        return False

    def parse_conjunct(self) -> RawConjunct:
        t = self.peek()
        if t.kind == "keyword" and t.text in ("this", "result"):
            subject = self.next().text
        else:
            subject = self.expect_ident().text
        pos = t.pos
        self.expect(":")
        conditions = [self.parse_condition()]
        while self.at(","):
            # A comma either continues this conjunct or starts the next
            # clause; a following `name:` or `(` belongs to the caller.
            nxt = self.peek(1)
            if nxt.kind == "(":
                break
            if (nxt.kind == "ident" or (nxt.kind == "keyword" and nxt.text in ("this", "result"))) \
                    and self.peek(2).kind == ":":
                break
            self.next()
            conditions.append(self.parse_condition())
        return RawConjunct(subject, conditions, pos)

    def parse_condition(self) -> RawCondition:
        t = self.peek()
        if self.accept("+"):
            name = self.parse_dotted_name()
            cond = RawCondition("add", name, pos=t.pos)
            if self.accept("@"):
                cond.source = self.parse_state_name()
            cond.residence = self.parse_residence()
            return cond
        name = self.parse_dotted_name()
        if self.accept("@"):
            source = self.parse_state_name()
            if self.accept("->"):
                target = self.parse_state_name()
                cond = RawCondition("transition", name, source, target, pos=t.pos)
                cond.residence = self.parse_residence()
                return cond
            return RawCondition("invariant-state", name, source, pos=t.pos)
        return RawCondition("invariant-label", name, pos=t.pos)

    def parse_state_name(self) -> str:
        t = self.peek()
        if t.kind in ("ident", "int"):
            return self.next().text
        raise SyntaxIssue(f"expected protocol state, found '{t.text or t.kind}'", t.pos)

    def parse_residence(self) -> list[list[str]]:
        if not (self.at("[") and self.peek(1).kind == "*"):
            return []
        self.next()
        self.next()
        paths = [self.parse_dotted_path()]
        while self.accept(","):
            paths.append(self.parse_dotted_path())
        self.expect("]")
        return paths

    def parse_target(self) -> RawTarget:
        t = self.peek()
        if self.accept("keyword", "this"):
            self.expect(".")
            return RawTarget("this", "", self.parse_dotted_path(), t.pos)
        if self.accept("keyword", "any"):
            self.expect("(")
            ty = self.parse_type_name()
            self.expect(")")
            self.expect(".")
            return RawTarget("any", ty, self.parse_dotted_path(), t.pos)
        name = self.expect_ident().text
        path: list[str] = []
        if self.accept("."):
            path = self.parse_dotted_path()
        return RawTarget("name", name, path, t.pos)

    def parse_local_mutation(self) -> tuple[tuple[str, ...], Pos]:
        """One `[!]` path, with the position of its first name."""
        pos = self.peek().pos
        return tuple(self.parse_dotted_path()), pos

    def parse_dotted_path(self) -> list[str]:
        parts = [self.expect_ident().text]
        while self.accept("."):
            parts.append(self.expect_ident().text)
        return parts

    def parse_dotted_name(self) -> str:
        return ".".join(self.parse_dotted_path())

    def parse_dotted_names(self) -> tuple[str, ...]:
        names = [self.parse_dotted_name()]
        while self.accept(","):
            names.append(self.parse_dotted_name())
        return tuple(names)

    # -- statements -----------------------------------------------------------

    def parse_statements(self) -> list[Stmt]:
        """The statements up to the `}` closing the `{` just taken."""
        self.nest()
        out: list[Stmt] = []
        while not self.accept("}"):
            out.append(self.parse_statement())
        self.depth -= 1
        return out

    def parse_statement(self) -> Stmt:
        t = self.peek()
        if t.kind == "{":
            self.next()
            return BlockStmt(self.parse_statements(), pos=t.pos)
        if self.at_keyword("protect"):
            self.next()
            var = self.expect_ident().text
            self.expect(".")
            path = tuple(self.parse_dotted_path())
            self.expect("{")
            body = self.parse_statements()
            return ProtectStmt(var, path, body, pos=t.pos)
        if self.at_keyword("return"):
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return ReturnStmt(value, pos=t.pos)
        if t.kind == "#":
            return self.parse_query_site(t.pos)
        # Local declaration: two identifiers in a row.
        if t.kind == "ident" and self.peek(1).kind == "ident":
            ty = self.next().text
            name = self.expect_ident().text
            init: Optional[Expr] = None
            if self.accept("="):
                if self.at("#"):
                    return self.parse_query_site(t.pos, name, ty)
                init = self.parse_expr()
            self.expect(";")
            return VarDeclStmt(ty, name, init, pos=t.pos)
        expr = self.parse_expr()
        if self.accept("="):
            if not isinstance(expr, (NameExpr, FieldAccessExpr)):
                raise SyntaxIssue("assignment target must be a variable or field", t.pos)
            if self.at("#"):
                if not isinstance(expr, NameExpr):
                    raise SyntaxIssue("a query's value can only be assigned to a variable",
                                      t.pos)
                return self.parse_query_site(t.pos, expr.name)
            value = self.parse_expr()
            self.expect(";")
            return AssignStmt(expr, value, pos=t.pos)
        if not isinstance(expr, (CallExpr, NewExpr, FieldAccessExpr)):
            raise SyntaxIssue("expression statement must be a call or field access", t.pos)
        self.expect(";")
        return ExprStmt(expr, pos=t.pos)

    def parse_query_site(self, pos: Pos, var: Optional[str] = None,
                         type_name: Optional[str] = None) -> QueryStmt:
        query = self.parse_query()
        span = self.parse_statements() if self.accept("{") else None
        if span is None:
            self.expect(";")
        return QueryStmt(query, span, var, type_name, pos)

    def parse_query(self) -> Query:
        pos = self.expect("#").pos
        kw = self.expect_ident().text
        if kw not in ("produce", "transform"):
            raise SyntaxIssue(f"unknown query kind '#{kw}'", pos)
        self.expect("(")
        produce_type = None
        target_var = None
        if kw == "produce":
            produce_type = self.parse_type_name()
        else:
            target_var = self.expect_ident().text
        self.expect(",")
        goal = self.parse_goal_text()
        self.expect(")")
        with_names = self.parse_dotted_names() if self.accept("keyword", "with") else ()
        return Query(kw, produce_type, target_var, goal, with_names, pos)

    def parse_goal_text(self) -> str:
        text = self.expect_ident().text
        while True:
            if self.accept("."):
                text += "." + self.parse_state_name()
            elif self.accept("@"):
                text += "@" + self.parse_state_name()
            else:
                return text

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_postfix(self.parse_primary())

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return LiteralExpr("int", self.int_value(t), t.pos)
        if t.kind == "string":
            self.next()
            return LiteralExpr("string", t.text, t.pos)
        if self.accept("keyword", "true"):
            return LiteralExpr("bool", True, t.pos)
        if self.accept("keyword", "false"):
            return LiteralExpr("bool", False, t.pos)
        if self.accept("keyword", "null"):
            return LiteralExpr("null", None, t.pos)
        if self.accept("keyword", "new"):
            ty = self.parse_type_name()
            self.expect("(")
            args = self.parse_args()
            self.expect(")")
            return NewExpr(ty, args, t.pos)
        if self.accept("keyword", "this"):
            return ThisExpr(t.pos)
        if self.accept("keyword", "super"):
            return SuperExpr(t.pos)
        if t.kind == "ident":
            self.next()
            if self.at("("):
                self.next()
                args = self.parse_args()
                self.expect(")")
                return CallExpr(None, t.text, args, t.pos)
            return NameExpr(t.text, t.pos)
        raise SyntaxIssue(f"expected expression, found '{t.text or t.kind}'", t.pos)

    def parse_postfix(self, expr: Expr) -> Expr:
        while self.at("."):
            self.next()
            name = self.expect_ident().text
            if self.accept("("):
                args = self.parse_args()
                self.expect(")")
                expr = CallExpr(expr, name, args, self.peek().pos)
            else:
                expr = FieldAccessExpr(expr, name, self.peek().pos)
        return expr

    def parse_args(self) -> list[Expr]:
        """The arguments after the `(` just taken; the caller takes the `)`."""
        args: list[Expr] = []
        if self.at(")"):
            return args
        self.nest()
        args.append(self.parse_expr())
        while self.accept(","):
            args.append(self.parse_expr())
        self.depth -= 1
        return args


def parse_unit(text: str) -> list[ClassModel]:
    """Parse one source unit into its type declarations, annotation names
    unbound."""
    return Parser(text).parse_program()
