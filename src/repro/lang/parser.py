"""Recursive-descent parser for CLC.

Produces the AST defined in :mod:`repro.lang.ast_nodes`. The grammar is
modeled on HCL2: files contain attributes and blocks; expressions
support literals, templates, traversals, operators, conditionals,
function calls, list/object constructors, splats, and ``for``
comprehensions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast_nodes import (
    AttrAccess,
    Attribute,
    BinaryOp,
    Block,
    Body,
    Conditional,
    ConfigFile,
    Expr,
    ForExpr,
    FunctionCall,
    IndexAccess,
    ListExpr,
    Literal,
    ObjectExpr,
    ScopeRef,
    SplatExpr,
    TemplateExpr,
    UnaryOp,
)
from .diagnostics import CLCSyntaxError, SourceSpan
from .lexer import Lexer
from .tokens import KEYWORD_LITERALS, Token, TokenType

# binary operator precedence, higher binds tighter
_BINARY_PRECEDENCE = {
    TokenType.OR: 1,
    TokenType.AND: 2,
    TokenType.EQ: 3,
    TokenType.NEQ: 3,
    TokenType.LT: 4,
    TokenType.GT: 4,
    TokenType.LTE: 4,
    TokenType.GTE: 4,
    TokenType.PLUS: 5,
    TokenType.MINUS: 5,
    TokenType.STAR: 6,
    TokenType.SLASH: 6,
    TokenType.PERCENT: 6,
}


class Parser:
    """Parses one token stream into a :class:`ConfigFile` or expression."""

    def __init__(self, tokens: List[Token], filename: str = "<config>"):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def _check(self, ttype: TokenType) -> bool:
        return self._peek().type is ttype

    def _match(self, ttype: TokenType) -> Optional[Token]:
        if self._check(ttype):
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        tok = self._peek()
        if tok.type is not ttype:
            want = what or ttype.value
            raise CLCSyntaxError(
                f"expected {want}, found {tok.type.value} ({tok.value!r})", tok.span
            )
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._check(TokenType.NEWLINE):
            self._advance()

    def _skip_separators(self) -> None:
        while self._check(TokenType.NEWLINE) or self._check(TokenType.COMMA):
            self._advance()

    # -- file / body -----------------------------------------------------

    def parse_file(self) -> ConfigFile:
        body = self._parse_body(top_level=True)
        self._expect(TokenType.EOF, "end of file")
        return ConfigFile(body=body, filename=self.filename)

    def _parse_body(self, top_level: bool = False) -> Body:
        body = Body()
        while True:
            self._skip_newlines()
            tok = self._peek()
            if tok.type is TokenType.EOF:
                if not top_level:
                    raise CLCSyntaxError("unexpected end of file in block", tok.span)
                return body
            if tok.type is TokenType.RBRACE:
                return body
            if tok.type is not TokenType.IDENT:
                raise CLCSyntaxError(
                    f"expected attribute or block, found {tok.value!r}", tok.span
                )
            self._parse_body_item(body)

    def _parse_body_item(self, body: Body) -> None:
        name_tok = self._advance()
        name = name_tok.value
        if self._match(TokenType.ASSIGN):
            expr = self.parse_expression()
            span = name_tok.span.merge(expr.span)
            if name in body.attributes:
                raise CLCSyntaxError(f"duplicate attribute {name!r}", name_tok.span)
            body.attributes[name] = Attribute(name=name, expr=expr, span=span)
            self._end_of_item()
            return
        # otherwise: block with zero or more labels
        labels: List[str] = []
        while True:
            tok = self._peek()
            if tok.type is TokenType.STRING:
                labels.append(self._advance().value)
            elif tok.type is TokenType.IDENT and not self._peek(1).type is (
                TokenType.ASSIGN
            ):
                # bare-word label (rare; HCL1 style)
                if self._peek(1).type in (
                    TokenType.LBRACE,
                    TokenType.STRING,
                    TokenType.IDENT,
                ):
                    labels.append(self._advance().value)
                else:
                    break
            else:
                break
        open_tok = self._expect(TokenType.LBRACE, "'{' to open block body")
        inner = self._parse_body(top_level=False)
        close_tok = self._expect(TokenType.RBRACE, "'}' to close block body")
        span = name_tok.span.merge(close_tok.span)
        body.blocks.append(Block(type=name, labels=labels, body=inner, span=span))
        self._end_of_item()

    def _end_of_item(self) -> None:
        tok = self._peek()
        if tok.type in (TokenType.NEWLINE, TokenType.EOF, TokenType.RBRACE):
            if tok.type is TokenType.NEWLINE:
                self._advance()
            return
        if tok.type is TokenType.COMMA:  # tolerated inside one-line bodies
            self._advance()
            return
        raise CLCSyntaxError(
            f"expected newline after item, found {tok.value!r}", tok.span
        )

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(1)
        if self._match(TokenType.QUESTION):
            self._skip_newlines()
            then = self.parse_expression()
            self._skip_newlines()
            self._expect(TokenType.COLON, "':' in conditional")
            self._skip_newlines()
            otherwise = self.parse_expression()
            return Conditional(
                cond=cond,
                then=then,
                otherwise=otherwise,
                span=cond.span.merge(otherwise.span),
            )
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PRECEDENCE.get(tok.type)
            if prec is None or prec < min_prec:
                return left
            self._advance()
            self._skip_newlines()
            right = self._parse_binary(prec + 1)
            left = BinaryOp(
                op=tok.value, left=left, right=right, span=left.span.merge(right.span)
            )

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.type in (TokenType.BANG, TokenType.MINUS):
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(
                op=tok.value, operand=operand, span=tok.span.merge(operand.span)
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self._check(TokenType.DOT):
                nxt = self._peek(1)
                if nxt.type is TokenType.IDENT:
                    self._advance()
                    name_tok = self._advance()
                    expr = AttrAccess(
                        obj=expr,
                        name=name_tok.value,
                        span=expr.span.merge(name_tok.span),
                    )
                    continue
                if nxt.type is TokenType.NUMBER and isinstance(nxt.value, int):
                    # legacy numeric traversal: list.0
                    self._advance()
                    num_tok = self._advance()
                    expr = IndexAccess(
                        obj=expr,
                        index=Literal(num_tok.value, num_tok.span),
                        span=expr.span.merge(num_tok.span),
                    )
                    continue
                if nxt.type is TokenType.STAR:
                    # attribute-only splat: list.*.id
                    self._advance()
                    self._advance()
                    expr = self._parse_splat_tail(expr)
                    continue
                raise CLCSyntaxError("expected attribute name after '.'", nxt.span)
            if self._check(TokenType.LBRACKET):
                if self._peek(1).type is TokenType.STAR and self._peek(2).type is (
                    TokenType.RBRACKET
                ):
                    self._advance()
                    self._advance()
                    self._advance()
                    expr = self._parse_splat_tail(expr)
                    continue
                open_tok = self._advance()
                index = self.parse_expression()
                close_tok = self._expect(TokenType.RBRACKET, "']' after index")
                expr = IndexAccess(
                    obj=expr, index=index, span=expr.span.merge(close_tok.span)
                )
                continue
            return expr

    def _parse_splat_tail(self, obj: Expr) -> Expr:
        attrs: List[str] = []
        end_span = obj.span
        while self._check(TokenType.DOT) and self._peek(1).type is TokenType.IDENT:
            self._advance()
            name_tok = self._advance()
            attrs.append(name_tok.value)
            end_span = name_tok.span
        return SplatExpr(obj=obj, attrs=attrs, span=obj.span.merge(end_span))

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.type is TokenType.NUMBER:
            self._advance()
            return Literal(tok.value, tok.span)
        if tok.type is TokenType.STRING:
            self._advance()
            return Literal(tok.value, tok.span)
        if tok.type is TokenType.TEMPLATE:
            self._advance()
            return self._build_template(tok)
        if tok.type is TokenType.IDENT:
            if tok.value in KEYWORD_LITERALS:
                self._advance()
                return Literal(KEYWORD_LITERALS[tok.value], tok.span)
            if self._peek(1).type is TokenType.LPAREN:
                return self._parse_function_call()
            self._advance()
            return ScopeRef(name=tok.value, span=tok.span)
        if tok.type is TokenType.LPAREN:
            self._advance()
            self._skip_newlines()
            inner = self.parse_expression()
            self._skip_newlines()
            self._expect(TokenType.RPAREN, "')'")
            return inner
        if tok.type is TokenType.LBRACKET:
            return self._parse_list_or_for()
        if tok.type is TokenType.LBRACE:
            return self._parse_object_or_for()
        raise CLCSyntaxError(
            f"expected expression, found {tok.type.value} ({tok.value!r})", tok.span
        )

    def _parse_function_call(self) -> Expr:
        name_tok = self._advance()
        self._expect(TokenType.LPAREN)
        args: List[Expr] = []
        expand_final = False
        self._skip_newlines()
        while not self._check(TokenType.RPAREN):
            args.append(self.parse_expression())
            if self._match(TokenType.ELLIPSIS):
                expand_final = True
                self._skip_newlines()
                break
            self._skip_separators()
        close_tok = self._expect(TokenType.RPAREN, "')' after arguments")
        return FunctionCall(
            name=name_tok.value,
            args=args,
            expand_final=expand_final,
            span=name_tok.span.merge(close_tok.span),
        )

    def _parse_list_or_for(self) -> Expr:
        open_tok = self._expect(TokenType.LBRACKET)
        self._skip_newlines()
        if self._check(TokenType.IDENT) and self._peek().value == "for":
            return self._parse_for(open_tok, is_object=False)
        items: List[Expr] = []
        while not self._check(TokenType.RBRACKET):
            items.append(self.parse_expression())
            self._skip_separators()
        close_tok = self._expect(TokenType.RBRACKET, "']'")
        return ListExpr(items=items, span=open_tok.span.merge(close_tok.span))

    def _parse_object_or_for(self) -> Expr:
        open_tok = self._expect(TokenType.LBRACE)
        self._skip_newlines()
        if self._check(TokenType.IDENT) and self._peek().value == "for":
            return self._parse_for(open_tok, is_object=True)
        entries: List[Tuple[Expr, Expr]] = []
        while not self._check(TokenType.RBRACE):
            key = self._parse_object_key()
            if not (self._match(TokenType.ASSIGN) or self._match(TokenType.COLON)):
                tok = self._peek()
                raise CLCSyntaxError(
                    f"expected '=' or ':' after object key, found {tok.value!r}",
                    tok.span,
                )
            self._skip_newlines()
            value = self.parse_expression()
            entries.append((key, value))
            self._skip_separators()
        close_tok = self._expect(TokenType.RBRACE, "'}'")
        return ObjectExpr(entries=entries, span=open_tok.span.merge(close_tok.span))

    def _parse_object_key(self) -> Expr:
        tok = self._peek()
        if tok.type is TokenType.IDENT and self._peek(1).type in (
            TokenType.ASSIGN,
            TokenType.COLON,
        ):
            self._advance()
            return Literal(tok.value, tok.span)
        if tok.type is TokenType.LPAREN:
            self._advance()
            inner = self.parse_expression()
            self._expect(TokenType.RPAREN, "')' after computed key")
            return inner
        return self.parse_expression()

    def _parse_for(self, open_tok: Token, is_object: bool) -> Expr:
        self._advance()  # 'for'
        first = self._expect(TokenType.IDENT, "loop variable").value
        key_var: Optional[str] = None
        value_var = first
        if self._match(TokenType.COMMA):
            key_var = first
            value_var = self._expect(TokenType.IDENT, "loop value variable").value
        in_tok = self._expect(TokenType.IDENT, "'in'")
        if in_tok.value != "in":
            raise CLCSyntaxError("expected 'in' in for expression", in_tok.span)
        collection = self.parse_expression()
        self._expect(TokenType.COLON, "':' in for expression")
        self._skip_newlines()
        result_key: Optional[Expr] = None
        if is_object:
            result_key = self.parse_expression()
            self._expect(TokenType.ARROW, "'=>' in object for expression")
            self._skip_newlines()
        result_value = self.parse_expression()
        grouping = bool(self._match(TokenType.ELLIPSIS))
        condition: Optional[Expr] = None
        self._skip_newlines()
        if self._check(TokenType.IDENT) and self._peek().value == "if":
            self._advance()
            condition = self.parse_expression()
        self._skip_newlines()
        closer = TokenType.RBRACE if is_object else TokenType.RBRACKET
        close_tok = self._expect(closer, "for expression terminator")
        return ForExpr(
            key_var=key_var,
            value_var=value_var,
            collection=collection,
            result_key=result_key,
            result_value=result_value,
            condition=condition,
            grouping=grouping,
            is_object=is_object,
            span=open_tok.span.merge(close_tok.span),
        )

    # -- templates ---------------------------------------------------------

    def _build_template(self, tok: Token) -> Expr:
        parts: List[Expr] = []
        for part in tok.value:
            if part[0] == "lit":
                parts.append(Literal(part[1], tok.span))
            else:
                _, src, span = part
                parts.append(parse_expression_source(src, self.filename, span))
        return TemplateExpr(parts=parts, span=tok.span)


def parse_file(
    source: str, filename: str = "<config>", start_line: int = 1
) -> ConfigFile:
    """Parse a full CLC source file (or one chunk of it, anchored at
    ``start_line`` so spans stay file-absolute)."""
    lexer = Lexer(source, filename, start_line=start_line)
    return Parser(lexer.tokens(), filename).parse_file()


def parse_expression_source(
    source: str, filename: str = "<expr>", at: Optional[SourceSpan] = None
) -> Expr:
    """Parse a standalone expression (used for template interpolations)."""
    line, col = (at.start_line, at.start_col) if at is not None else (1, 1)
    parser = Parser(Lexer(source, filename, line, col).tokens(), filename)
    expr = parser.parse_expression()
    parser._skip_newlines()
    parser._expect(TokenType.EOF, "end of expression")
    return expr
