"""Lexer for the CLC configuration language.

The token stream feeds :mod:`repro.lang.parser`. Quoted strings that
contain ``${...}`` interpolations are emitted as ``TEMPLATE`` tokens
whose value is a list of ``("lit", text)`` / ``("expr", source, span)``
parts; the parser re-lexes the expression sources recursively.

One compiled master pattern (a named-group alternation, the stdlib
``tokenize`` idiom) matches each token with the blanks before it,
whole block comments and plain strings included. Strings with escapes
or ``${}``, and heredocs, go to small sub-scanners. Lines and columns
come from newline offsets, never from a per-character walk.
"""

from __future__ import annotations

import re
from typing import Any, List, Tuple

from .diagnostics import CLCSyntaxError, SourceSpan
from .tokens import OPERATORS, Token, TokenType


def _op_alternation() -> str:
    """The ``op`` group from OPERATORS: longest first, one-character
    operators as a class; ``/`` and ``<`` must not open a comment or a
    heredoc, so they are the only ones written out here."""
    ops = sorted((op for op, _ in OPERATORS), key=len, reverse=True)
    chars = "".join(re.escape(o) for o in ops if len(o) == 1 and o not in "/<")
    longer = [re.escape(o) for o in ops if len(o) > 1]
    return "|".join(longer + [f"[{chars}]", "/(?![/*])", "<(?!<)"])


_MASTER = re.compile(
    r"""[ \t\r]*(?:
     (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<op>%s)
    |(?P<nl>\n[ \t\r\n]*)
    |(?P<str>"[^"\\\n$]*")
    |(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)*)
    |(?P<comment>(?:\#|//)[^\n]*)
    |(?P<block>/\*(?s:.*?)\*/)
    |(?P<open>/\*|<<|")
    |(?P<bad>[^ \t\r]))"""
    % _op_alternation(),
    re.VERBOSE,
)
_LITERAL_RUN = re.compile(r'[^"\\\n$]+')
_INTERP_STOP = re.compile(r'["{}\\]')
_MARKER = re.compile(r"[A-Za-z0-9_]*")
_ESCAPES = dict(zip('ntrfb"\\$', "\n\t\r\f\b\"\\$"))
_OPS = dict(OPERATORS)
IDENT, NUMBER, STRING, TEMPLATE, NEWLINE, EOF = (
    TokenType.IDENT, TokenType.NUMBER, TokenType.STRING,
    TokenType.TEMPLATE, TokenType.NEWLINE, TokenType.EOF,
)
LPAREN, RPAREN, LBRACKET, RBRACKET = (
    TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACKET, TokenType.RBRACKET
)
_new = object.__new__


def _token(ttype, value, filename, l1, c1, l2, c2) -> Token:
    """``Token(ttype, value, SourceSpan(filename, l1, c1, l2, c2))``,
    built by filling the fresh frozen instances' ``__dict__`` -- a
    third of the cost of the generated ``__init__``, which pays one
    ``object.__setattr__`` per field."""
    span = _new(SourceSpan)
    d = span.__dict__
    d["filename"] = filename
    d["start_line"] = l1
    d["start_col"] = c1
    d["end_line"] = l2
    d["end_col"] = c2
    tok = _new(Token)
    d = tok.__dict__
    d["type"] = ttype
    d["value"] = value
    d["span"] = span
    return tok


class Lexer:
    """Single-pass lexer over one configuration source string.

    ``start_line``/``start_col`` anchor spans when lexing one chunk of
    a larger file (streaming parse) or an interpolation's source, so
    tokens report file-absolute positions.
    """

    def __init__(
        self, source: str, filename: str = "<config>",
        start_line: int = 1, start_col: int = 1,
    ):
        self.source = source
        self.filename = filename
        self.start_line = start_line
        self.start_col = start_col

    def tokens(self) -> List[Token]:
        """Lex the whole source into a token list ending with EOF."""
        src, fname = self.source, self.filename
        out: List[Token] = []
        append = out.append
        # the column of offset ``i`` on the current line is ``i - lstart``
        line, lstart = self.start_line, -self.start_col
        depth = 0  # suppress NEWLINE inside () and []
        after_nl = False  # collapse runs of newlines
        pos = 0
        while True:
            for m in _MASTER.finditer(src, pos):
                kind = m.lastgroup
                text = m.group(kind)
                e = m.end()
                s = e - len(text)
                if kind == "ident":
                    ttype, value = IDENT, text
                elif kind == "op":
                    ttype, value = _OPS[text], text
                    if ttype is LPAREN or ttype is LBRACKET:
                        depth += 1
                    elif (ttype is RPAREN or ttype is RBRACKET) and depth:
                        depth -= 1
                elif kind == "nl":
                    if not depth and not after_nl:
                        append(_token(NEWLINE, "\n", fname, line, s - lstart, line + 1, 1))
                        after_nl = True
                    line += text.count("\n")
                    lstart = s + text.rindex("\n")
                    continue
                elif kind == "str":
                    ttype, value = STRING, text[1:-1]
                elif kind == "num":
                    ttype, value = NUMBER, self._number(text, s)
                elif kind == "comment" or kind == "block":
                    if "\n" in text:  # only block comments span lines
                        line += text.count("\n")
                        lstart = s + text.rindex("\n")
                    continue
                elif kind == "open" and text != "/*":
                    scan = self._string if text == '"' else self._heredoc
                    tok, pos = scan(s, line, lstart)
                    append(tok)
                    after_nl = False
                    line, lstart = self._sync(s, pos, line, lstart)
                    break
                elif kind == "open":
                    raise self._error("unterminated block comment", len(src))
                else:
                    raise self._error(f"unexpected character {text!r}", s)
                append(_token(ttype, value, fname, line, s - lstart, line, e - lstart))
                after_nl = False
            else:
                break
        end = len(src) - lstart
        append(_token(EOF, None, fname, line, end, line, end))
        return out

    # -- positions -----------------------------------------------------

    def _sync(self, base: int, off: int, line: int, lstart: int) -> Tuple[int, int]:
        """``(line, lstart)`` at ``off``, given them at ``base <= off``."""
        newlines = self.source.count("\n", base, off)
        if not newlines:
            return line, lstart
        return line + newlines, self.source.rindex("\n", base, off)

    def _span(self, start: int, end: int, line: int, lstart: int) -> SourceSpan:
        """The span ``start..end``; ``line``/``lstart`` hold at ``start``."""
        l2, lend = self._sync(start, end, line, lstart)
        return SourceSpan(self.filename, line, start - lstart, l2, end - lend)

    def _error(self, message: str, off: int) -> CLCSyntaxError:
        line, lstart = self._sync(0, off, self.start_line, -self.start_col)
        return CLCSyntaxError(message, self._span(off, off, line, lstart))

    # -- sub-scanners --------------------------------------------------

    def _number(self, text: str, off: int) -> Any:
        if "." not in text and "e" not in text and "E" not in text:
            return int(text)
        try:
            return float(text)
        except ValueError:  # a second exponent: 1e5e5
            raise self._error(f"invalid number literal {text!r}", off)

    def _string(self, start: int, line: int, lstart: int) -> Tuple[Token, int]:
        """A quoted string with escapes and/or ``${...}`` parts."""
        src, n = self.source, len(self.source)
        parts: List[Tuple] = []
        lit: List[str] = []
        i = start + 1
        while True:
            m = _LITERAL_RUN.match(src, i)
            if m is not None:
                lit.append(m.group())
                i = m.end()
            if i >= n:
                raise self._error("unterminated string literal", n)
            ch = src[i]
            if ch == '"':
                i += 1
                break
            if ch == "\n":
                raise self._error("newline in string literal", i)
            if ch == "\\":
                esc = src[i + 1 : i + 2]
                if esc in _ESCAPES:
                    lit.append(_ESCAPES[esc])
                    i += 2
                    continue
                if esc != "u":
                    raise self._error(f"invalid escape sequence \\{esc}", i + 1)
                digits = src[i + 2 : i + 6]
                i += 2 + len(digits)
                try:
                    if len(digits) == 4:
                        lit.append(chr(int(digits, 16)))
                        continue
                except ValueError:
                    pass
                raise self._error(f"invalid unicode escape \\u{digits}", i)
            elif src.startswith("${", i):
                if i + 2 >= n:
                    raise self._error("unterminated interpolation", i)
                if lit:
                    parts.append(("lit", "".join(lit)))
                    lit = []
                part, i = self._interpolation(i + 2, start, line, lstart)
                parts.append(part)
            else:  # a lone "$", or "$${": an escaped literal "${"
                lit.append("$")
                i += 2 if src.startswith("$${", i) else 1
        if lit or not parts:
            parts.append(("lit", "".join(lit)))
        span = self._span(start, i, line, lstart)
        if len(parts) == 1 and parts[0][0] == "lit":
            return Token(STRING, parts[0][1], span), i
        return Token(TEMPLATE, parts, span), i

    def _interpolation(
        self, begin: int, base: int, line: int, lstart: int
    ) -> Tuple[Tuple[str, str, SourceSpan], int]:
        """Scan ``${``'s body from ``begin``: ("expr", source, span) and
        the offset past the closing brace. ``line``/``lstart`` hold at
        ``base``, the string's opening quote."""
        src = self.source
        depth, in_str, i = 1, False, begin
        while True:
            m = _INTERP_STOP.search(src, i)
            if m is None:
                raise self._error("unterminated interpolation", len(src))
            ch, i = m.group(), m.end()
            if in_str:
                if ch == "\\":
                    i = min(i + 1, len(src))
                elif ch == '"':
                    in_str = False
            elif ch == '"':
                in_str = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if not depth:
                    line, lstart = self._sync(base, begin, line, lstart)
                    span = self._span(begin, i - 1, line, lstart)
                    return ("expr", src[begin : i - 1], span), i

    def _heredoc(self, start: int, line: int, lstart: int) -> Tuple[Token, int]:
        src = self.source
        strip_indent = src.startswith("-", start + 2)
        m = _MARKER.match(src, start + 2 + strip_indent)
        marker, i = m.group(), m.end()
        if not marker:
            raise self._error("heredoc requires a delimiter word", i)
        eol = src.find("\n", i)
        i = len(src) if eol < 0 else eol + 1
        lines: List[str] = []
        while True:
            eol = src.find("\n", i)
            if eol < 0:
                raise self._error(f"unterminated heredoc (expected {marker})", len(src))
            text = src[i:eol]
            # the closing marker's newline stays unconsumed: it ends the
            # heredoc *item*, so the main loop emits a NEWLINE token and
            # an attribute may follow on the next line
            if text.strip() == marker:
                break
            lines.append(text)
            i = eol + 1
        if strip_indent and lines:
            pad = min(
                (len(ln) - len(ln.lstrip()) for ln in lines if ln.strip()),
                default=0,
            )
            lines = [ln[pad:] if len(ln) >= pad else ln for ln in lines]
        text = "".join(ln + "\n" for ln in lines)
        return Token(STRING, text, self._span(start, eol, line, lstart)), eol


def tokenize(source: str, filename: str = "<config>") -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokens()
