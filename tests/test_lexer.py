"""Lexer unit tests."""

import pytest

from repro.lang.diagnostics import CLCSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType


def kinds(source):
    return [t.type for t in tokenize(source) if t.type is not TokenType.EOF]


def values(source):
    return [t.value for t in tokenize(source) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_identifier(self):
        toks = tokenize("hello")
        assert toks[0].type is TokenType.IDENT
        assert toks[0].value == "hello"

    def test_integer(self):
        assert values("42") == [42]
        assert isinstance(values("42")[0], int)

    def test_float(self):
        assert values("3.25") == [3.25]

    def test_scientific_notation(self):
        assert values("1e3") == [1000.0]
        assert values("2.5e-2") == [0.025]

    def test_operators(self):
        assert kinds("== != <= >= && || =>") == [
            TokenType.EQ,
            TokenType.NEQ,
            TokenType.LTE,
            TokenType.GTE,
            TokenType.AND,
            TokenType.OR,
            TokenType.ARROW,
        ]

    def test_single_char_operators(self):
        assert kinds("+ - * / % ! ? :") == [
            TokenType.PLUS,
            TokenType.MINUS,
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.PERCENT,
            TokenType.BANG,
            TokenType.QUESTION,
            TokenType.COLON,
        ]

    def test_ellipsis(self):
        assert kinds("...") == [TokenType.ELLIPSIS]

    def test_unexpected_character(self):
        with pytest.raises(CLCSyntaxError):
            tokenize("@")


class TestStrings:
    def test_plain_string(self):
        assert values('"hello"') == ["hello"]

    def test_empty_string(self):
        assert values('""') == [""]

    def test_escapes(self):
        assert values(r'"a\nb\tc\"d\\e"') == ['a\nb\tc"d\\e']

    def test_invalid_escape(self):
        with pytest.raises(CLCSyntaxError):
            tokenize(r'"\q"')

    def test_truncated_unicode_escape(self):
        # a \u escape cut short by the end of input is a typed syntax
        # error pointing at the end, not an IndexError
        with pytest.raises(CLCSyntaxError) as info:
            tokenize('x = "\\u12')
        assert "invalid unicode escape" in info.value.message
        assert (info.value.span.start_line, info.value.span.start_col) == (1, 10)

    def test_unterminated_string(self):
        with pytest.raises(CLCSyntaxError):
            tokenize('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(CLCSyntaxError):
            tokenize('"line\nbreak"')

    def test_template_string(self):
        toks = tokenize('"vm-${var.env}-x"')
        assert toks[0].type is TokenType.TEMPLATE
        parts = toks[0].value
        assert parts[0] == ("lit", "vm-")
        assert parts[1][0] == "expr"
        assert parts[1][1] == "var.env"
        assert parts[2] == ("lit", "-x")

    def test_escaped_interpolation(self):
        assert values('"cost: $${amount}"') == ["cost: ${amount}"]

    def test_nested_braces_in_interpolation(self):
        toks = tokenize('"${ { a = 1 } }"')
        assert toks[0].type is TokenType.TEMPLATE
        assert toks[0].value[0][1].strip() == "{ a = 1 }"

    def test_string_inside_interpolation(self):
        toks = tokenize('"${lookup(m, "key")}"')
        assert toks[0].type is TokenType.TEMPLATE
        assert 'lookup(m, "key")' == toks[0].value[0][1]


class TestHeredocs:
    def test_basic_heredoc(self):
        source = "x = <<EOF\nline one\nline two\nEOF\n"
        toks = tokenize(source)
        heredoc = [t for t in toks if t.type is TokenType.STRING][0]
        assert heredoc.value == "line one\nline two\n"

    def test_indented_heredoc(self):
        source = "x = <<-EOF\n    a\n      b\n    EOF\n"
        toks = tokenize(source)
        heredoc = [t for t in toks if t.type is TokenType.STRING][0]
        assert heredoc.value == "a\n  b\n"

    def test_unterminated_heredoc(self):
        with pytest.raises(CLCSyntaxError):
            tokenize("x = <<EOF\nnever closed")


class TestCommentsAndWhitespace:
    def test_hash_comment(self):
        assert values("a # comment\nb") == ["a", "\n", "b"]

    def test_slash_comment(self):
        assert values("a // comment\nb") == ["a", "\n", "b"]

    def test_block_comment(self):
        assert values("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CLCSyntaxError):
            tokenize("/* forever")

    def test_newlines_collapse(self):
        assert kinds("a\n\n\nb") == [
            TokenType.IDENT,
            TokenType.NEWLINE,
            TokenType.IDENT,
        ]

    def test_newlines_suppressed_in_brackets(self):
        assert TokenType.NEWLINE not in kinds("[1,\n2,\n3]")
        assert TokenType.NEWLINE not in kinds("f(\n1,\n2\n)")

    def test_newlines_kept_in_braces(self):
        assert TokenType.NEWLINE in kinds("{\na = 1\n}")


class TestSpans:
    def test_line_and_column_tracking(self):
        toks = tokenize('a = "x"\nbb = 2')
        assert toks[0].span.start_line == 1
        bb = [t for t in toks if t.value == "bb"][0]
        assert bb.span.start_line == 2
        assert bb.span.start_col == 1

    def test_filename_propagates(self):
        toks = tokenize("a", filename="net.clc")
        assert toks[0].span.filename == "net.clc"
