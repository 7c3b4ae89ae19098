"""Recursive-descent parser producing a Program tree.

Grammar (clauses may repeat and appear in any order; duplicates of device or
scheduling are a semantic error, not a syntax error):

    program     : (declaration | assignment | directive)*
    declaration : type IDENT ('[' INT ']')? ';'
                | 'stream' '<' type '>' IDENT ';'
    assignment  : IDENT '=' expr ';'
    directive   : PRAGMA clause* block        -- clauses on the pragma line
    clause      : ('in'|'out'|'inout') '(' varref (',' varref)* ')'
                | 'device' '(' ('*' | INT (',' INT)*) ')'
                | 'scheduling' '(' 'AUTO' | INT | INT ':' INT (',' INT ':' INT)* ')'
    varref      : IDENT (':' type)?
    block       : '{' (local_decl | assignment)+ '}'   -- on lines after the pragma
    expr        : term (('+'|'-') term)*
    term        : factor (('*'|'/') factor)*
    factor      : INT | FLOAT | IDENT | '(' expr ')' | '-' factor
"""

from __future__ import annotations

from hstream import errors
from hstream.errors import CompileError
from hstream.frontend.ast import (
    Assignment,
    BodyItem,
    Clause,
    Declaration,
    DeviceClause,
    DirectiveNode,
    InClause,
    InOutClause,
    OutClause,
    Program,
    SchedulingClause,
    TopItem,
    VarRef,
)
from hstream.frontend.lexer import Token, TokenKind
from hstream.ir import (
    ALL_DEVICES,
    AutoSchedule,
    BinOp,
    DeviceIds,
    ElementType,
    Expr,
    Neg,
    Num,
    PerDeviceSchedule,
    UniformSchedule,
    Var,
    VarKind,
)

_CLAUSE_NAMES = {"in", "out", "inout", "device", "scheduling"}
_REF_CLAUSES = {"in": InClause, "out": OutClause, "inout": InOutClause}
_TYPES = {t.c_name: t for t in ElementType}
_ADDITIVE = frozenset("+-")
_MULTIPLICATIVE = frozenset("*/")


def _end_of_input(end: Token) -> CompileError:
    return CompileError.single(end.line, end.col, errors.SYNTAX, "unexpected end of input")


class _Parser:
    """Reads a token list that ends with an END token placed where input
    ends, so that looking ahead never runs off the list. A lexeme that is a
    punctuation character, such as '(', belongs to a punctuation token, so
    comparing a lexeme with one also checks the kind."""

    def __init__(self, tokens: list[Token]):
        if tokens:
            last = tokens[-1]
            end = Token(TokenKind.END, "", last.line, last.col + len(last.lexeme))
        else:
            end = Token(TokenKind.END, "", 1, 1)
        self.tokens = [*tokens, end]
        self.pos = 0

    # -- token helpers --------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.END:
            raise _end_of_input(tok)
        self.pos += 1
        return tok

    def unexpected(self, tok: Token, message: str) -> CompileError:
        """The error for reading `tok` where `message` says what belongs:
        running off the input is reported as such, as `next` does."""
        if tok.kind is TokenKind.END:
            return _end_of_input(tok)
        return self.error(tok, message)

    def error(self, tok: Token, message: str) -> CompileError:
        got = "end of input" if tok.kind is TokenKind.END else repr(tok.lexeme)
        return CompileError.single(tok.line, tok.col, errors.SYNTAX, f"{message} (got {got})")

    def expect_punct(self, ch: str, context: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.lexeme != ch:
            raise self.unexpected(tok, f"expected '{ch}' {context}")
        self.pos += 1
        return tok

    def at_punct(self, ch: str) -> bool:
        return self.tokens[self.pos].lexeme == ch

    def expect_ident(self, context: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.IDENT:
            raise self.unexpected(tok, f"expected identifier {context}")
        self.pos += 1
        return tok

    def expect_int(self, context: str) -> int:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.INT:
            raise self.unexpected(tok, f"expected integer {context}")
        self.pos += 1
        return int(tok.lexeme)

    # -- grammar --------------------------------------------------------------

    def program(self) -> Program:
        items: list[TopItem] = []
        while (tok := self.peek()).kind is not TokenKind.END:
            if tok.kind is TokenKind.KEYWORD:
                items.append(self.declaration())
            elif tok.kind is TokenKind.PRAGMA:
                items.append(self.directive())
            elif tok.kind is TokenKind.IDENT:
                items.append(self.assignment())
            else:
                raise self.error(tok, "expected declaration, assignment, or directive")
        return Program(tuple(items))

    def type_keyword(self) -> ElementType:
        tok = self.next()
        if tok.kind is not TokenKind.KEYWORD or tok.lexeme not in _TYPES:
            raise self.error(tok, "expected type 'int' or 'double'")
        return _TYPES[tok.lexeme]

    def declaration(self, local: bool = False) -> Declaration:
        tok = self.next()
        if tok.lexeme == "stream":
            if local:
                raise self.error(tok, "streams cannot be declared inside a directive body")
            self.expect_punct("<", "after 'stream'")
            et = self.type_keyword()
            self.expect_punct(">", "after stream element type")
            name = self.expect_ident("in stream declaration")
            self.expect_punct(";", "after declaration")
            return Declaration(name.lexeme, et, VarKind.STREAM, None, tok.line, tok.col)
        et = _TYPES[tok.lexeme]
        name = self.expect_ident("in declaration")
        if self.at_punct("["):
            if local:
                raise self.error(self.peek(), "arrays cannot be declared inside a directive body")
            self.next()
            size = self.expect_int("as array size")
            self.expect_punct("]", "after array size")
            self.expect_punct(";", "after declaration")
            return Declaration(name.lexeme, et, VarKind.ARRAY, size, tok.line, tok.col)
        self.expect_punct(";", "after declaration")
        return Declaration(name.lexeme, et, VarKind.SCALAR, None, tok.line, tok.col)

    def assignment(self) -> Assignment:
        name = self.expect_ident("as assignment target")
        self.expect_punct("=", "in assignment")
        expr = self.expr()
        self.expect_punct(";", "after assignment")
        return Assignment(name.lexeme, expr, name.line, name.col)

    def directive(self) -> DirectiveNode:
        pragma = self.next()
        clauses: list[Clause] = []
        while (tok := self.peek()).kind is not TokenKind.END and tok.line == pragma.line \
                and tok.lexeme != "{":
            clauses.append(self.clause())
        brace = self.peek()
        if brace.lexeme != "{":
            raise self.error(brace, "expected '{' to open the directive body")
        if brace.line == pragma.line:
            raise self.error(brace, "directive body must start on a line after the pragma")
        self.next()
        body: list[BodyItem] = []
        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind is TokenKind.END:
                raise self.error(tok, "unclosed directive body")
            if tok.kind is TokenKind.KEYWORD:
                body.append(self.declaration(local=True))
            elif tok.kind is TokenKind.IDENT:
                body.append(self.assignment())
            else:
                raise self.error(tok, "expected assignment or declaration in directive body")
        close = self.next()
        if not any(isinstance(item, Assignment) for item in body):
            raise CompileError.single(close.line, close.col, errors.SYNTAX,
                                      "directive body must contain at least one assignment")
        return DirectiveNode(tuple(clauses), tuple(body), pragma.line, pragma.col)

    def clause(self) -> Clause:
        tok = self.next()
        if tok.kind is not TokenKind.IDENT or tok.lexeme not in _CLAUSE_NAMES:
            raise self.error(tok, "expected clause (in/out/inout/device/scheduling)")
        self.expect_punct("(", f"after '{tok.lexeme}'")
        if tok.lexeme in _REF_CLAUSES:
            refs = [self.varref()]
            while self.at_punct(","):
                self.next()
                refs.append(self.varref())
            self.expect_punct(")", "to close the clause")
            return _REF_CLAUSES[tok.lexeme](tuple(refs), tok.line, tok.col)
        if tok.lexeme == "device":
            if self.at_punct("*"):
                self.next()
                self.expect_punct(")", "to close device(*)")
                return DeviceClause(ALL_DEVICES, tok.line, tok.col)
            ids = [self.expect_int("as device id")]
            while self.at_punct(","):
                self.next()
                ids.append(self.expect_int("as device id"))
            self.expect_punct(")", "to close the device clause")
            return DeviceClause(DeviceIds(tuple(ids)), tok.line, tok.col)
        # scheduling
        nxt = self.peek()
        if nxt.kind is TokenKind.IDENT and nxt.lexeme.lower() == "auto":
            self.next()
            self.expect_punct(")", "to close scheduling(AUTO)")
            return SchedulingClause(AutoSchedule(), tok.line, tok.col)
        first = self.expect_int("as chunk size or device id")
        if self.at_punct(":"):
            self.next()
            entries = [(first, self._chunk_size(tok))]
            while self.at_punct(","):
                self.next()
                dev = self.expect_int("as device id")
                self.expect_punct(":", "between device id and chunk size")
                entries.append((dev, self._chunk_size(tok)))
            self.expect_punct(")", "to close the scheduling clause")
            return SchedulingClause(PerDeviceSchedule(tuple(entries)), tok.line, tok.col)
        if first < 1:
            raise CompileError.single(tok.line, tok.col, errors.SYNTAX,
                                      "chunk size must be a positive integer")
        self.expect_punct(")", "to close the scheduling clause")
        return SchedulingClause(UniformSchedule(first), tok.line, tok.col)

    def _chunk_size(self, clause_tok: Token) -> int:
        size = self.expect_int("as chunk size")
        if size < 1:
            raise CompileError.single(clause_tok.line, clause_tok.col, errors.SYNTAX,
                                      "chunk size must be a positive integer")
        return size

    def varref(self) -> VarRef:
        name = self.expect_ident("in clause")
        stream_type = None
        if self.at_punct(":"):
            self.next()
            stream_type = self.type_keyword()
        return VarRef(name.lexeme, stream_type, name.line, name.col)

    # -- expressions -----------------------------------------------------------

    def expr(self) -> Expr:
        left = self.term()
        while self.peek().lexeme in _ADDITIVE:
            op = self.next()
            right = self.term()
            left = BinOp(op.lexeme, left, right, op.line, op.col)
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().lexeme in _MULTIPLICATIVE:
            op = self.next()
            right = self.factor()
            left = BinOp(op.lexeme, left, right, op.line, op.col)
        return left

    def factor(self) -> Expr:
        tok = self.next()
        if tok.kind is TokenKind.INT:
            return Num(int(tok.lexeme), ElementType.INT, tok.line, tok.col)
        if tok.kind is TokenKind.FLOAT:
            return Num(float(tok.lexeme), ElementType.DOUBLE, tok.line, tok.col)
        if tok.kind is TokenKind.IDENT:
            return Var(tok.lexeme, tok.line, tok.col)
        if tok.lexeme == "(":
            inner = self.expr()
            self.expect_punct(")", "to close the expression")
            return inner
        if tok.lexeme == "-":
            return Neg(self.factor(), tok.line, tok.col)
        raise self.error(tok, "expected expression")


def parse(tokens: list[Token]) -> Program:
    """Parse a token stream into a Program; raises CompileError on the first
    syntax error, carrying its position."""
    return _Parser(tokens).program()
