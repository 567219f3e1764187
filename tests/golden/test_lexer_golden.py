"""Golden equivalence: the master-regex lexer vs the frozen reference.

:mod:`tests.golden.reference_lexer` is the character-at-a-time lexer the
regex rewrite replaced. For every input here both lexers must agree
exactly: the same token types, values and spans (``Token`` equality
covers the spans of a ``TEMPLATE`` token's interpolation parts, which
sit inside its value), or the same syntax error with the same message
and span.

Corpora: the example programs (``examples/**/*.clc`` files and the CLC
programs embedded in ``examples/*.py``), generated ``repro.workloads``
estates lexed whole and chunk by chunk, and a hypothesis corpus built
from the characters the lexer treats specially.

Two inputs are excluded from exact agreement because the reference is
wrong there and raises an untyped error: a ``\\u`` escape cut short by
the end of input (``IndexError``) and a number with a second exponent
such as ``1e5e5`` (``ValueError``). The shipped lexer raises
``CLCSyntaxError`` for both; :func:`agree` checks that instead.
"""

import ast
import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.chunker import iter_chunks
from repro.lang.diagnostics import CLCSyntaxError
from repro.lang.lexer import Lexer
from repro.workloads import (
    hub_spoke,
    microservices,
    ml_training,
    multi_cloud,
    random_dag_estate,
    scale_estate_sharded,
    two_region_estate,
    vpn_site,
    web_tier,
)

from .reference_lexer import Lexer as ReferenceLexer

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _lex(cls, source, filename, start_line, start_col):
    if cls is ReferenceLexer:
        lexer = cls(source, filename, start_line=start_line)
        lexer.col = start_col  # the reference anchors a column by assignment
        return lexer.tokens()
    return cls(source, filename, start_line, start_col).tokens()


def _outcome(cls, source, filename, start_line, start_col):
    try:
        return "ok", _lex(cls, source, filename, start_line, start_col)
    except CLCSyntaxError as exc:
        return "error", (exc.message, exc.span)


def agree(source, filename="main.clc", start_line=1, start_col=1):
    """Assert both lexers give the same tokens or the same error."""
    try:
        want = _outcome(ReferenceLexer, source, filename, start_line, start_col)
    except (IndexError, ValueError):
        # the reference's two untyped failures (see module docstring)
        with pytest.raises(CLCSyntaxError):
            Lexer(source, filename, start_line, start_col).tokens()
        return None
    got = _outcome(Lexer, source, filename, start_line, start_col)
    assert got == want, source
    return got


def _example_programs():
    """``examples/**/*.clc`` plus the CLC text embedded in examples/*.py."""
    programs = {}
    pattern = os.path.join(ROOT, "examples", "**", "*.clc")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            programs[os.path.relpath(path, ROOT)] = handle.read()
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:  # module-level PROGRAM = """...""" constants
            value = getattr(node, "value", None)
            if (
                isinstance(node, ast.Assign)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and 'resource "' in value.value
            ):
                key = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                programs[key] = value.value
    return programs


EXAMPLES = _example_programs()

ESTATES = {
    "web_tier": web_tier(web_vms=3, app_vms=2),
    "microservices": microservices(),
    "hub_spoke": hub_spoke(),
    "ml_training": ml_training(),
    "vpn_site": vpn_site(),
    "multi_cloud": multi_cloud(),
    "two_region": two_region_estate(40),
    "random_dag": random_dag_estate(60, seed=3),
    "scale_sharded": scale_estate_sharded(400, providers=4, cross_link_every=5),
}


def test_examples_are_found():
    assert EXAMPLES, "no example programs found"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_programs(name):
    kind, tokens = agree(EXAMPLES[name], filename=name)
    assert kind == "ok" and len(tokens) > 1


@pytest.mark.parametrize("name", sorted(ESTATES))
def test_generated_estates_whole_and_chunked(name):
    source = ESTATES[name]
    kind, tokens = agree(source, filename=f"{name}.clc")
    assert kind == "ok"
    for chunk in iter_chunks(source):
        agree(chunk.text, filename=f"{name}.clc", start_line=chunk.start_line)


def test_template_part_spans_match():
    source = 'name = "a-${var.x}-b-${ {k = "}"}.k }"\n'
    kind, tokens = agree(source)
    template = tokens[2]
    assert template.type.name == "TEMPLATE"
    spans = [part[2] for part in template.value if part[0] == "expr"]
    assert [(s.start_line, s.start_col, s.end_col) for s in spans] == [
        (1, 13, 18),
        (1, 24, 37),
    ]


def test_expression_anchor_column():
    agree("var.a + local.b", filename="main.clc", start_line=7, start_col=14)
    agree("f(\n  1,\n  2)", filename="main.clc", start_line=3, start_col=9)


ERROR_CASES = {
    "unterminated string": 'a = "oops',
    "unterminated string after escape": 'a = "x\\',
    "unterminated block comment": "a = 1\n/* forever\nand ever",
    "unterminated heredoc": "x = <<EOF\nline\nnever closed",
    "heredoc closer without newline": "x = <<EOF\nline\nEOF",
    "heredoc without delimiter": "x = <<\nEOF\n",
    "unterminated interpolation": 'a = "${var.x',
    "interpolation at end of input": 'a = "${',
    "unterminated string in interpolation": 'a = "${f("}")',
    "bad escape": 'a = 1\nname = "\\q"',
    "bad unicode escape": 'a = "\\uzzzz"',
    "unicode escape swallowing a newline": 'a = "\\u12\n"',
    "newline in string": 'a = "line\nbreak"',
    "newline in template string": 'a = "${x}\n"',
    "unexpected character": "a = 1\n  b = @",
    "unexpected lone ampersand": "a = b & c",
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_messages_and_spans_match(name):
    kind, detail = agree(ERROR_CASES[name], filename="err.clc")
    assert kind == "error"
    message, span = detail
    assert message and span.filename == "err.clc"


def test_truncated_unicode_escape_is_typed():
    # excluded from agreement: the reference raises IndexError here
    with pytest.raises(IndexError):
        ReferenceLexer('x = "\\u12').tokens()
    agree('x = "\\u12')


LEXER_ALPHABET = ' \t\r\n\\"$${}[]()<<-=!&|.,:?+*/%#@ae0123456789xEOFuq_'


@given(st.text(alphabet=LEXER_ALPHABET, max_size=80))
@settings(max_examples=600, deadline=None)
def test_hypothesis_corpus(source):
    agree(source)


@given(
    st.lists(
        st.sampled_from(
            [
                'a = "x"', 'b = "${v.x}-y"', '"$${lit}"', "<<EOF\nz\nEOF",
                "<<-T\n  q\n   r\n  T", "[1,\n2]", "f(\n)", "/* c\n */",
                "# h", "// s", "1.5e-3", "3.", "x...y", "\n\n", "  ",
                '"\\u0041\\n"', "{ k = v }", "a=>b", "!= <= >=", '"${"}"}"',
            ]
        ),
        max_size=12,
    ),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_hypothesis_token_soup(pieces, start_line):
    agree(" ".join(pieces), start_line=start_line)
