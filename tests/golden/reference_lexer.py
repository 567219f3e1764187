"""Frozen reference lexer: the character-at-a-time CLC lexer, kept as
the test oracle for :mod:`repro.lang.lexer`.

The code below is the lexer as it stood before the master-regex
rewrite, unchanged apart from its imports. The golden tests
(``test_lexer_golden.py``) and ``benchmarks/bench_p8_coldstart.py``
compare the shipped lexer's token stream, error messages and spans
against it. Do not optimise or fix it: it is wrong in one known place
(a ``\\u`` escape truncated by end of input raises ``IndexError``),
and the golden tests exclude that case.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.lang.diagnostics import CLCSyntaxError, SourceSpan
from repro.lang.tokens import KEYWORD_LITERALS, OPERATORS, Token, TokenType

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")

#: operator literals bucketed by length, longest first, so matching is a
#: constant number of short-slice dict probes instead of a linear scan
#: over ``OPERATORS`` against an O(remaining-source) slice per token.
_OPS_BY_LEN: List[Tuple[int, Dict[str, TokenType]]] = []
for _lit, _ttype in OPERATORS:
    for _n, _bucket in _OPS_BY_LEN:
        if _n == len(_lit):
            _bucket[_lit] = _ttype
            break
    else:
        _OPS_BY_LEN.append((len(_lit), {_lit: _ttype}))
_OPS_BY_LEN.sort(key=lambda pair: -pair[0])

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SPACE_RE = re.compile(r"[ \t\r]+")

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "f": "\f",
    "b": "\b",
    '"': '"',
    "\\": "\\",
    "$": "$",
}


class Lexer:
    """Single-pass lexer over one configuration source string."""

    def __init__(
        self, source: str, filename: str = "<config>", start_line: int = 1
    ):
        self.source = source
        self.filename = filename
        self.pos = 0
        # start_line anchors spans when lexing one chunk of a larger
        # file (streaming parse): tokens report file-absolute lines
        self.line = start_line
        self.col = 1
        self._paren_depth = 0  # suppress NEWLINE inside () and []

    # -- low-level cursor helpers -------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _here(self) -> Tuple[int, int]:
        return self.line, self.col

    def _span_from(self, start: Tuple[int, int]) -> SourceSpan:
        return SourceSpan(self.filename, start[0], start[1], self.line, self.col)

    def _error(self, message: str) -> CLCSyntaxError:
        span = SourceSpan(self.filename, self.line, self.col, self.line, self.col)
        return CLCSyntaxError(message, span)

    # -- public API ----------------------------------------------------

    def tokens(self) -> List[Token]:
        """Lex the whole source into a token list ending with EOF."""
        out: List[Token] = []
        while True:
            tok = self._next_token()
            if tok is None:
                continue
            # collapse runs of newlines
            if (
                tok.type is TokenType.NEWLINE
                and out
                and out[-1].type is TokenType.NEWLINE
            ):
                continue
            out.append(tok)
            if tok.type is TokenType.EOF:
                return out

    # -- scanning ------------------------------------------------------

    def _next_token(self) -> Optional[Token]:
        self._skip_inline_space_and_comments()
        start = self._here()
        if self.pos >= len(self.source):
            return Token(TokenType.EOF, None, self._span_from(start))
        ch = self._peek()
        if ch == "\n":
            self._advance()
            if self._paren_depth > 0:
                return None
            return Token(TokenType.NEWLINE, "\n", self._span_from(start))
        if ch in _IDENT_START:
            return self._lex_ident(start)
        if ch in _DIGITS:
            return self._lex_number(start)
        if ch == '"':
            return self._lex_string(start)
        if ch == "<" and self._peek(1) == "<":
            return self._lex_heredoc(start)
        return self._lex_operator(start)

    def _skip_inline_space_and_comments(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in (" ", "\t", "\r"):
                # bulk-skip the whole run (no newlines in the class, so
                # column tracking is a single addition)
                match = _SPACE_RE.match(self.source, self.pos)
                length = match.end() - match.start()
                self.pos += length
                self.col += length
            elif ch == "#" or (ch == "/" and self._peek(1) == "/"):
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance()
                self._advance()
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    def _lex_ident(self, start: Tuple[int, int]) -> Token:
        match = _IDENT_RE.match(self.source, self.pos)
        text = match.group()
        # identifiers never contain newlines: advance in one step
        self.pos = match.end()
        self.col += len(text)
        span = self._span_from(start)
        if text in KEYWORD_LITERALS:
            # true/false/null lex as IDENT; the parser resolves keyword
            # literals so that block labels like `null_resource` still work.
            return Token(TokenType.IDENT, text, span)
        return Token(TokenType.IDENT, text, span)

    def _lex_number(self, start: Tuple[int, int]) -> Token:
        chars = []
        is_float = False
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in _DIGITS:
                chars.append(self._advance())
            elif ch == "." and self._peek(1) in _DIGITS and not is_float:
                is_float = True
                chars.append(self._advance())
            elif ch in ("e", "E") and (
                self._peek(1) in _DIGITS
                or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
            ):
                is_float = True
                chars.append(self._advance())
                if self._peek() in "+-":
                    chars.append(self._advance())
            else:
                break
        text = "".join(chars)
        value: Any = float(text) if is_float else int(text)
        return Token(TokenType.NUMBER, value, self._span_from(start))

    def _lex_string(self, start: Tuple[int, int]) -> Token:
        self._advance()  # opening quote
        parts: List[Tuple] = []
        lit: List[str] = []

        def flush_lit() -> None:
            if lit:
                parts.append(("lit", "".join(lit)))
                lit.clear()

        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == "\n":
                raise self._error("newline in string literal")
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                if esc in _ESCAPES:
                    self._advance()
                    lit.append(_ESCAPES[esc])
                elif esc == "u":
                    self._advance()
                    digits = "".join(self._advance() for _ in range(4))
                    try:
                        lit.append(chr(int(digits, 16)))
                    except ValueError:
                        raise self._error(f"invalid unicode escape \\u{digits}")
                else:
                    raise self._error(f"invalid escape sequence \\{esc}")
                continue
            if ch == "$" and self._peek(1) == "{":
                if self._peek(2) == "":
                    raise self._error("unterminated interpolation")
                flush_lit()
                parts.append(self._lex_interpolation())
                continue
            if ch == "$" and self._peek(1) == "$" and self._peek(2) == "{":
                # $${ is an escaped literal ${
                self._advance()
                self._advance()
                lit.append("$")
                continue
            lit.append(self._advance())
        flush_lit()
        span = self._span_from(start)
        if len(parts) == 1 and parts[0][0] == "lit":
            return Token(TokenType.STRING, parts[0][1], span)
        if not parts:
            return Token(TokenType.STRING, "", span)
        if all(p[0] == "lit" for p in parts):
            return Token(TokenType.STRING, "".join(p[1] for p in parts), span)
        return Token(TokenType.TEMPLATE, parts, span)

    def _lex_interpolation(self) -> Tuple[str, str, SourceSpan]:
        """Consume ``${ ... }`` and return ("expr", source, span)."""
        self._advance()  # $
        self._advance()  # {
        expr_start = self._here()
        depth = 1
        chars: List[str] = []
        in_str = False
        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated interpolation")
            ch = self._peek()
            if in_str:
                if ch == "\\":
                    chars.append(self._advance())
                    if self.pos < len(self.source):
                        chars.append(self._advance())
                    continue
                if ch == '"':
                    in_str = False
            elif ch == '"':
                in_str = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    span = self._span_from(expr_start)
                    self._advance()  # closing }
                    return ("expr", "".join(chars), span)
            chars.append(self._advance())

    def _lex_heredoc(self, start: Tuple[int, int]) -> Token:
        self._advance()
        self._advance()  # <<
        strip_indent = False
        if self._peek() == "-":
            strip_indent = True
            self._advance()
        marker_chars = []
        while self.pos < len(self.source) and self._peek() in _IDENT_CONT:
            marker_chars.append(self._advance())
        marker = "".join(marker_chars)
        if not marker:
            raise self._error("heredoc requires a delimiter word")
        while self.pos < len(self.source) and self._peek() != "\n":
            self._advance()
        if self.pos < len(self.source):
            self._advance()  # consume newline after marker
        lines: List[str] = []
        current: List[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self._error(f"unterminated heredoc (expected {marker})")
            if self._peek() == "\n":
                line = "".join(current)
                if line.strip() == marker:
                    # leave the newline unconsumed: it ends the heredoc
                    # *item*, so the main loop emits a NEWLINE token and
                    # an attribute may follow on the next line
                    break
                self._advance()
                lines.append(line)
                current = []
            else:
                current.append(self._advance())
        if strip_indent and lines:
            pad = min(
                (len(ln) - len(ln.lstrip()) for ln in lines if ln.strip()),
                default=0,
            )
            lines = [ln[pad:] if len(ln) >= pad else ln for ln in lines]
        text = "\n".join(lines)
        if lines:
            text += "\n"
        return Token(TokenType.STRING, text, self._span_from(start))

    def _lex_operator(self, start: Tuple[int, int]) -> Token:
        # Longest-match via per-length dict probes. The historical
        # implementation sliced the *entire remaining source* per token
        # (O(source) each, quadratic over a file); these slices are at
        # most three characters.
        pos = self.pos
        for length, bucket in _OPS_BY_LEN:
            literal = self.source[pos : pos + length]
            ttype = bucket.get(literal)
            if ttype is None:
                continue
            # operators never contain newlines: advance in one step
            self.pos += length
            self.col += length
            if ttype in (TokenType.LPAREN, TokenType.LBRACKET):
                self._paren_depth += 1
            elif ttype in (TokenType.RPAREN, TokenType.RBRACKET):
                self._paren_depth = max(0, self._paren_depth - 1)
            return Token(ttype, literal, self._span_from(start))
        raise self._error(f"unexpected character {self._peek()!r}")


def tokenize(source: str, filename: str = "<config>") -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokens()
