"""Recursive-descent parser producing the model's declarations.

Declarations, statements and expressions parse straight into the model's
forms. Names inside annotations stay textual here (see `MethodSpec`); the
resolver binds them in place against the merged declaration set. The
parser is total per file: the first error aborts the file with a
positioned SyntaxIssue.

The parser reads its tokens by plain index: the list ends in three `eof`s,
so a lookahead of up to two never needs a bound. A token is the lexer's
tuple `(kind, text, line, col)`, read as `t[0]` and `t[1]`; the parser
builds a `Pos(t[2], t[3])` only for a position that a node or a SyntaxIssue
keeps.
"""

from __future__ import annotations

from typing import Optional

from .lexer import LexError, Token, tokenize
from .model import (
    ArgDecl, AssignStmt, BlockStmt, CallExpr, ClassModel, Expr, ExprStmt,
    ExternalDecl, FieldAccessExpr, FieldDecl, LabelDecl, LiteralExpr,
    MethodSpec, NameExpr, NewExpr, Pos, ProtectStmt, ProtocolDecl, Query,
    QueryStmt, ResourceNode, ReturnStmt, Stmt, SuperExpr, ThisExpr,
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

# The keywords that may start a field or a method.
MEMBER_MODIFIERS = frozenset({"static", "final", "abstract", "managed", *UNIQUENESS_KEYWORDS})


class SyntaxIssue(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(message)
        self.message = message
        self.pos = pos


# -- annotation forms whose names bind only once every unit is parsed --------

class RawCondition:
    """One condition of a conjunct, before its names resolve."""

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


class RawConjunct:
    """A subject and its conditions, before resolution."""

    def __init__(self, subject: str, conditions: list[RawCondition],
                 pos: Optional[Pos] = None):
        self.subject = subject
        self.conditions = conditions
        self.pos = Pos() if pos is None else pos


class RawTarget:
    """A `mutates` target, before resolution."""

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
            tokens = tokenize(text)
        except LexError as e:
            raise SyntaxIssue(e.message, e.pos) from e
        # Two more copies of the `eof` let `peek(2)` index without a bound:
        # `next` never moves past the first `eof`, and no caller asks
        # `accept` or `expect` for one.
        tokens += tokens[-1:] * 2
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def here(self) -> Pos:
        """The position of the next token."""
        t = self.tokens[self.i]
        return Pos(t[2], t[3])

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tokens[self.i]
        return t[0] == kind and (text is None or t[1] == text)

    def at_keyword(self, word: str) -> bool:
        t = self.tokens[self.i]
        return t[0] == "keyword" and t[1] == word

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.tokens[self.i]
        if t[0] != kind or (text is not None and t[1] != text):
            want = text or kind
            got = t[1] or t[0]
            raise SyntaxIssue(f"expected '{want}', found '{got}'", Pos(t[2], t[3]))
        self.i += 1
        return t

    def expect_ident(self) -> Token:
        t = self.tokens[self.i]
        if t[0] != "ident":
            raise SyntaxIssue(f"expected identifier, found '{t[1] or t[0]}'", Pos(t[2], t[3]))
        self.i += 1
        return t

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.tokens[self.i]
        if t[0] == kind and (text is None or t[1] == text):
            self.i += 1
            return t
        return None

    def int_value(self, t: Token) -> int:
        """The value of an int token. The lexer takes any `str.isdigit` run,
        and some of those characters, such as '²', are not decimal digits."""
        try:
            return int(t[1])
        except ValueError:
            raise SyntaxIssue(f"invalid integer literal '{t[1]}'", Pos(t[2], t[3])) from None

    def nest(self) -> None:
        """Enter the level that the token just taken opens."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.tokens[self.i - 1]
            raise SyntaxIssue(f"nesting deeper than {MAX_NESTING} levels", Pos(t[2], t[3]))

    # -- entry ---------------------------------------------------------------

    def parse_program(self) -> list[ClassModel]:
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_type_decl())
        return decls

    def parse_type_decl(self) -> ClassModel:
        pos = self.here()
        is_abstract = self.accept("keyword", "abstract") is not None
        if self.accept("keyword", "interface"):
            is_interface = True
        else:
            self.expect("keyword", "class")
            is_interface = False
        name = self.expect_ident()[1]
        superclass = None
        interfaces: list[str] = []
        if self.accept("keyword", "extends"):
            if is_interface:
                interfaces.append(self.expect_ident()[1])
                while self.accept(","):
                    interfaces.append(self.expect_ident()[1])
            else:
                superclass = self.expect_ident()[1]
        if self.accept("keyword", "implements"):
            interfaces.append(self.expect_ident()[1])
            while self.accept(","):
                interfaces.append(self.expect_ident()[1])
        decl = ClassModel(name, superclass, tuple(interfaces), is_interface, pos=pos)
        self.expect("{")
        while not self.accept("}"):
            self.parse_member(decl)
        decl.is_abstract = is_abstract or any(m.is_abstract for m in decl.methods)
        return decl

    # -- members ---------------------------------------------------------------

    def parse_member(self, decl: ClassModel) -> None:
        t = self.tokens[self.i]
        if t[0] != "keyword" or t[1] in MEMBER_MODIFIERS:
            self.parse_field_or_method(decl)
        elif t[1] == "labels":
            pos, carriers, names = self.parse_carried_names()
            decl.labels.append(LabelDecl(decl.name, carriers, names, pos))
        elif t[1] == "protocols":
            pos, carriers, names = self.parse_carried_names()
            decl.protocols.extend(ProtocolDecl(decl.name, carriers, n, pos) for n in names)
        elif t[1] == "resources":
            decl.resources += self.parse_resources()
        elif t[1] == "external":
            decl.externals.append(self.parse_external())
        elif t[1] == "precedence":
            self.next()
            decl.precedence = self.int_value(self.expect("int"))
            self.expect(";")
        else:
            raise SyntaxIssue(f"unknown annotation keyword '{t[1]}'", Pos(t[2], t[3]))

    def parse_carried_names(self) -> tuple[Pos, tuple[str, ...], tuple[str, ...]]:
        """A `labels` or `protocols` line: the keyword's position, the
        carrier types and the declared names."""
        pos = self.here()
        self.next()
        carriers = self.parse_carrier_list()
        names = [self.expect_ident()[1]]
        while self.accept(","):
            names.append(self.expect_ident()[1])
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
        if t[0] == "ident":
            return self.next()[1]
        raise SyntaxIssue(f"expected type name, found '{t[1] or t[0]}'", Pos(t[2], t[3]))

    def parse_resources(self) -> tuple[ResourceNode, ...]:
        self.expect("keyword", "resources")
        out = [self.parse_resource_def()]
        while self.accept(","):
            out.append(self.parse_resource_def())
        self.expect(";")
        return tuple(out)

    def parse_resource_def(self) -> ResourceNode:
        name = self.expect_ident()[1]
        if not self.accept("{"):
            return ResourceNode(name)
        self.nest()
        children = [self.parse_resource_def()]
        while self.accept(","):
            children.append(self.parse_resource_def())
        self.expect("}")
        self.depth -= 1
        return ResourceNode(name, tuple(children))

    def parse_external(self) -> ExternalDecl:
        pos = self.here()
        self.expect("keyword", "external")
        target = self.expect_ident()[1]
        # Declared in the type it annotates; the resolver sets its return type.
        if self.accept("."):
            method = MethodSpec(self.expect_ident()[1], target, "void", (), pos=pos)
        else:
            method = MethodSpec(target, target, target, (), is_constructor=True, pos=pos)
        self.parse_signature(method)
        self.expect(";")
        return ExternalDecl(method, pos)

    def parse_params(self) -> tuple[ArgDecl, ...]:
        args: list[ArgDecl] = []
        if self.at(")"):
            return ()
        while True:
            kind = UniquenessKind.NORMAL
            t = self.peek()
            if t[0] == "keyword" and t[1] in UNIQUENESS_KEYWORDS:
                kind = UNIQUENESS_KEYWORDS[self.next()[1]]
            ty = self.parse_type_name()
            name = self.expect_ident()
            args.append(ArgDecl(kind, ty, name[1], Pos(name[2], name[3])))
            if not self.accept(","):
                break
        return tuple(args)

    def parse_field_or_method(self, decl: ClassModel) -> None:
        pos = self.here()
        is_static = is_final = is_abstract = False
        managed = False
        managed_resource: Optional[tuple[str, ...]] = None
        kind = UniquenessKind.NORMAL
        while True:
            t = self.peek()
            if t[0] != "keyword":
                break
            if t[1] == "static":
                self.next()
                is_static = True
            elif t[1] == "final":
                self.next()
                is_final = True
            elif t[1] == "abstract":
                self.next()
                is_abstract = True
            elif t[1] == "managed":
                self.next()
                managed = True
                if self.accept("("):
                    managed_resource = tuple(self.parse_dotted_path())
                    self.expect(")")
            elif t[1] in UNIQUENESS_KEYWORDS:
                self.next()
                kind = UNIQUENESS_KEYWORDS[t[1]]
            else:
                break
        result_labels = self.parse_dotted_names() if self.accept("+") else ()
        first = self.parse_type_name()
        # A constructor is the bare class name followed by a parameter list.
        is_ctor = self.at("(") and first == decl.name and not result_labels
        name = first if is_ctor else self.expect_ident()[1]
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
            if t[0] in ("{", ";", "eof"):
                break
            if t[0] == ",":
                self.next()
                continue
            if t[0] == "[":
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
            if t[0] == "(":
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
                f"unknown annotation keyword '{t[1] or t[0]}'", Pos(t[2], t[3]))
        method.local_mutations = tuple(local_mutations)
        method.mutates = tuple(mutates)
        method.conjuncts = tuple(conjuncts)
        method.optional_groups = tuple(groups)

    def _at_conjunct_start(self) -> bool:
        t = self.peek()
        if t[0] == "ident" or (t[0] == "keyword" and t[1] in ("this", "result")):
            return self.peek(1)[0] == ":"
        return False

    def parse_conjunct(self) -> RawConjunct:
        t = self.peek()
        if t[0] == "keyword" and t[1] in ("this", "result"):
            subject = self.next()[1]
        else:
            subject = self.expect_ident()[1]
        pos = Pos(t[2], t[3])
        self.expect(":")
        conditions = [self.parse_condition()]
        while self.at(","):
            # A comma either continues this conjunct or starts the next
            # clause; a following `name:` or `(` belongs to the caller.
            nxt = self.peek(1)
            if nxt[0] == "(":
                break
            if (nxt[0] == "ident" or (nxt[0] == "keyword" and nxt[1] in ("this", "result"))) \
                    and self.peek(2)[0] == ":":
                break
            self.next()
            conditions.append(self.parse_condition())
        return RawConjunct(subject, conditions, pos)

    def parse_condition(self) -> RawCondition:
        t = self.peek()
        if self.accept("+"):
            name = self.parse_dotted_name()
            cond = RawCondition("add", name, pos=Pos(t[2], t[3]))
            if self.accept("@"):
                cond.source = self.parse_state_name()
            cond.residence = self.parse_residence()
            return cond
        name = self.parse_dotted_name()
        if self.accept("@"):
            source = self.parse_state_name()
            if self.accept("->"):
                target = self.parse_state_name()
                cond = RawCondition("transition", name, source, target, pos=Pos(t[2], t[3]))
                cond.residence = self.parse_residence()
                return cond
            return RawCondition("invariant-state", name, source, pos=Pos(t[2], t[3]))
        return RawCondition("invariant-label", name, pos=Pos(t[2], t[3]))

    def parse_state_name(self) -> str:
        t = self.peek()
        if t[0] in ("ident", "int"):
            return self.next()[1]
        raise SyntaxIssue(f"expected protocol state, found '{t[1] or t[0]}'", Pos(t[2], t[3]))

    def parse_residence(self) -> list[list[str]]:
        if not (self.at("[") and self.peek(1)[0] == "*"):
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
            return RawTarget("this", "", self.parse_dotted_path(), Pos(t[2], t[3]))
        if self.accept("keyword", "any"):
            self.expect("(")
            ty = self.parse_type_name()
            self.expect(")")
            self.expect(".")
            return RawTarget("any", ty, self.parse_dotted_path(), Pos(t[2], t[3]))
        name = self.expect_ident()[1]
        path: list[str] = []
        if self.accept("."):
            path = self.parse_dotted_path()
        return RawTarget("name", name, path, Pos(t[2], t[3]))

    def parse_local_mutation(self) -> tuple[tuple[str, ...], Pos]:
        """One `[!]` path, with the position of its first name."""
        pos = self.here()
        return tuple(self.parse_dotted_path()), pos

    def parse_dotted_path(self) -> list[str]:
        parts = [self.expect_ident()[1]]
        while self.accept("."):
            parts.append(self.expect_ident()[1])
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
        if t[0] == "{":
            self.next()
            return BlockStmt(self.parse_statements(), pos=Pos(t[2], t[3]))
        if self.at_keyword("protect"):
            self.next()
            var = self.expect_ident()[1]
            self.expect(".")
            path = tuple(self.parse_dotted_path())
            self.expect("{")
            body = self.parse_statements()
            return ProtectStmt(var, path, body, pos=Pos(t[2], t[3]))
        if self.at_keyword("return"):
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return ReturnStmt(value, pos=Pos(t[2], t[3]))
        if t[0] == "#":
            return self.parse_query_site(Pos(t[2], t[3]))
        # Local declaration: two identifiers in a row.
        if t[0] == "ident" and self.peek(1)[0] == "ident":
            ty = self.next()[1]
            name = self.expect_ident()[1]
            init: Optional[Expr] = None
            if self.accept("="):
                if self.at("#"):
                    return self.parse_query_site(Pos(t[2], t[3]), name, ty)
                init = self.parse_expr()
            self.expect(";")
            return VarDeclStmt(ty, name, init, pos=Pos(t[2], t[3]))
        expr = self.parse_expr()
        if self.accept("="):
            if not isinstance(expr, (NameExpr, FieldAccessExpr)):
                raise SyntaxIssue("assignment target must be a variable or field", Pos(t[2], t[3]))
            if self.at("#"):
                if not isinstance(expr, NameExpr):
                    raise SyntaxIssue("a query's value can only be assigned to a variable",
                                      Pos(t[2], t[3]))
                return self.parse_query_site(Pos(t[2], t[3]), expr.name)
            value = self.parse_expr()
            self.expect(";")
            return AssignStmt(expr, value, pos=Pos(t[2], t[3]))
        if not isinstance(expr, (CallExpr, NewExpr, FieldAccessExpr)):
            raise SyntaxIssue("expression statement must be a call or field access", Pos(t[2], t[3]))
        self.expect(";")
        return ExprStmt(expr, pos=Pos(t[2], t[3]))

    def parse_query_site(self, pos: Pos, var: Optional[str] = None,
                         type_name: Optional[str] = None) -> QueryStmt:
        query = self.parse_query()
        span = self.parse_statements() if self.accept("{") else None
        if span is None:
            self.expect(";")
        return QueryStmt(query, span, var, type_name, pos)

    def parse_query(self) -> Query:
        pos = self.here()
        self.expect("#")
        kw = self.expect_ident()[1]
        if kw not in ("produce", "transform"):
            raise SyntaxIssue(f"unknown query kind '#{kw}'", pos)
        self.expect("(")
        produce_type = None
        target_var = None
        if kw == "produce":
            produce_type = self.parse_type_name()
        else:
            target_var = self.expect_ident()[1]
        self.expect(",")
        goal = self.parse_goal_text()
        self.expect(")")
        with_names = self.parse_dotted_names() if self.accept("keyword", "with") else ()
        return Query(kw, produce_type, target_var, goal, with_names, pos)

    def parse_goal_text(self) -> str:
        text = self.expect_ident()[1]
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
        if t[0] == "int":
            self.next()
            return LiteralExpr("int", self.int_value(t), Pos(t[2], t[3]))
        if t[0] == "string":
            self.next()
            return LiteralExpr("string", t[1], Pos(t[2], t[3]))
        if self.accept("keyword", "true"):
            return LiteralExpr("bool", True, Pos(t[2], t[3]))
        if self.accept("keyword", "false"):
            return LiteralExpr("bool", False, Pos(t[2], t[3]))
        if self.accept("keyword", "null"):
            return LiteralExpr("null", None, Pos(t[2], t[3]))
        if self.accept("keyword", "new"):
            ty = self.parse_type_name()
            self.expect("(")
            args = self.parse_args()
            self.expect(")")
            return NewExpr(ty, args, Pos(t[2], t[3]))
        if self.accept("keyword", "this"):
            return ThisExpr(Pos(t[2], t[3]))
        if self.accept("keyword", "super"):
            return SuperExpr(Pos(t[2], t[3]))
        if t[0] == "ident":
            self.next()
            if self.at("("):
                self.next()
                args = self.parse_args()
                self.expect(")")
                return CallExpr(None, t[1], args, Pos(t[2], t[3]))
            return NameExpr(t[1], Pos(t[2], t[3]))
        raise SyntaxIssue(f"expected expression, found '{t[1] or t[0]}'", Pos(t[2], t[3]))

    def parse_postfix(self, expr: Expr) -> Expr:
        while self.at("."):
            self.next()
            name = self.expect_ident()
            if self.accept("("):
                args = self.parse_args()
                self.expect(")")
                expr = CallExpr(expr, name[1], args, Pos(name[2], name[3]))
            else:
                expr = FieldAccessExpr(expr, name[1], Pos(name[2], name[3]))
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
