"""Tokenizer behavior: token streams, comment stripping, illegal constructs."""

import importlib.util
import re
import sys

import pytest
from hypothesis import given, settings

from hstream import errors
from hstream.errors import CompileError
from hstream.frontend import lex
from hstream.frontend.lexer import TokenKind
from tests.conftest import PROGRAMS, REPO
from tests.test_codegen import random_kernel_source


def kinds_and_lexemes(source):
    return [(t.kind, t.lexeme) for t in lex(source)]


def test_assignment_token_stream():
    assert kinds_and_lexemes("a = b+scalar*c;") == [
        (TokenKind.IDENT, "a"),
        (TokenKind.PUNCT, "="),
        (TokenKind.IDENT, "b"),
        (TokenKind.PUNCT, "+"),
        (TokenKind.IDENT, "scalar"),
        (TokenKind.PUNCT, "*"),
        (TokenKind.IDENT, "c"),
        (TokenKind.PUNCT, ";"),
    ]


def test_line_comment_produces_no_tokens():
    assert lex("// comment") == []


def test_block_comment_stripped_and_lines_counted():
    tokens = lex("/* one\n two */\nx = 1;")
    assert [t.lexeme for t in tokens] == ["x", "=", "1", ";"]
    assert tokens[0].line == 3


def test_whitespace_and_comments_never_tokens():
    tokens = lex("int x; // trailing\n/* block */ double y;")
    assert all(t.kind in (TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT)
               for t in tokens)


def test_illegal_character_position():
    with pytest.raises(CompileError) as err:
        lex("a @ b")
    (diag,) = err.value.diagnostics
    assert diag.code == errors.ILLEGAL_CHAR
    assert (diag.line, diag.col) == (1, 3)


def test_pragma_introducer_single_token():
    tokens = lex("#pragma hstream in(a)")
    assert tokens[0].kind is TokenKind.PRAGMA
    assert tokens[0].lexeme == "#pragma hstream"
    assert [t.lexeme for t in tokens[1:]] == ["in", "(", "a", ")"]


def test_foreign_pragma_rejected():
    with pytest.raises(CompileError) as err:
        lex("#pragma omp parallel for")
    assert err.value.codes == [errors.BAD_PRAGMA]


def test_stray_hash_rejected():
    with pytest.raises(CompileError) as err:
        lex("#include <stdio.h>")
    assert err.value.codes == [errors.ILLEGAL_CHAR]


def test_number_tokens():
    tokens = lex("x = 42 + 2.5 + 1.0e3;")
    numeric = [(t.kind, t.lexeme) for t in tokens
               if t.kind in (TokenKind.INT, TokenKind.FLOAT)]
    assert numeric == [(TokenKind.INT, "42"), (TokenKind.FLOAT, "2.5"),
                       (TokenKind.FLOAT, "1.0e3")]


def test_positions_are_one_based():
    tokens = lex("int x;\n  x = 1;")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    x = [t for t in tokens if t.lexeme == "x"][1]
    assert (x.line, x.col) == (2, 3)


def test_unterminated_block_comment():
    with pytest.raises(CompileError) as err:
        lex("/* never closed")
    assert err.value.codes == [errors.SYNTAX]


# --- positions ----------------------------------------------------------------------

_PRAGMA_TEXT = re.compile(r"#pragma[ \t]*hstream")
_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def assert_positions_point_at_lexemes(source):
    """Each token's (line, col) is where its lexeme starts in `source`, the
    tokens come in source order, and only blanks and comments lie between."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    end = 0
    for tok in lex(source):
        at = line_starts[tok.line - 1] + tok.col - 1
        if tok.kind is TokenKind.PRAGMA:
            m = _PRAGMA_TEXT.match(source, at)
            assert m, (tok, source[at:at + 20])
            length = m.end() - at
        else:
            assert source.startswith(tok.lexeme, at), (tok, source[at:at + 20])
            length = len(tok.lexeme)
        assert at >= end, tok
        assert _COMMENT.sub("", source[end:at]).strip(" \t\r\n") == "", tok
        end = at + length
    assert _COMMENT.sub("", source[end:]).strip(" \t\r\n") == ""


def _compile_corpus():
    """The compile benchmark's corpus, loaded from perfbench/corpus.py."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  REPO / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [p for seed in (0, 1) for p in module.build_corpus(REPO, seed)]


def test_positions_in_shipped_programs():
    paths = sorted(PROGRAMS.glob("*.hs.c"))
    assert paths
    for path in paths:
        assert_positions_point_at_lexemes(path.read_text(encoding="utf-8"))


def test_positions_in_the_compile_corpus():
    checked = 0
    for program in _compile_corpus():
        try:
            assert_positions_point_at_lexemes(program.text)
            checked += 1
        except CompileError:
            assert program.expect, program.name  # only invalid programs may not lex
    assert checked > 20


@settings(max_examples=50, deadline=None)
@given(random_kernel_source())
def test_positions_in_generated_programs(source):
    assert_positions_point_at_lexemes(source)


def test_positions_after_block_comments_tabs_and_spaced_pragmas():
    source = ("double a[4];\tdouble\tb[4]; /* one\n two\n\tthree */ int n; // end\n"
              "#pragma \t  hstream\tin(b)  out(a)\n"
              "{\n\t/* x */a = b*2.5e3 -\t1;  \n}\n"
              "#pragma\thstream in(b) out(a)\n{\n    a = b;\n}\t \n")
    tokens = lex(source)
    n = next(t for t in tokens if t.lexeme == "n")
    assert (n.line, n.col) == (3, 15)
    pragmas = [(t.line, t.col) for t in tokens if t.kind is TokenKind.PRAGMA]
    assert pragmas == [(4, 1), (8, 1)]
    a = [t for t in tokens if t.lexeme == "a"][2]
    assert (a.line, a.col) == (6, 9)
    assert_positions_point_at_lexemes(source)
