"""Template group loading and $hole$ rendering."""

import pytest

from hstream.codegen.templates import TemplateGroup, load_group


def test_single_line_template_with_inner_quotes():
    group = TemplateGroup.parse("g", 'say(who) ::= "print("$who$");"')
    assert group.render("say", who="hi") == 'print("hi");'


def test_heredoc_template():
    group = TemplateGroup.parse("g", "wrap(body) ::= <<\n{\n    $body$\n}\n>>")
    assert group.render("wrap", body="x = 1;") == "{\n    x = 1;\n}"


def test_multiline_value_indents_to_hole_column():
    group = TemplateGroup.parse("g", "wrap(body) ::= <<\n{\n    $body$\n}\n>>")
    rendered = group.render("wrap", body="a = 1;\nb = 2;")
    assert rendered == "{\n    a = 1;\n    b = 2;\n}"


def test_dollar_escape():
    group = TemplateGroup.parse("g", 'cost(n) ::= "$$ $n$"')
    assert group.render("cost", n=5) == "$ 5"


def test_missing_argument_rejected():
    group = TemplateGroup.parse("g", 'f(a, b) ::= "$a$ $b$"')
    with pytest.raises(KeyError, match="missing"):
        group.render("f", a=1)


def test_unknown_argument_rejected():
    group = TemplateGroup.parse("g", 'f(a) ::= "$a$"')
    with pytest.raises(KeyError, match="unknown"):
        group.render("f", a=1, b=2)


def test_undeclared_hole_rejected_at_load():
    with pytest.raises(ValueError, match="undeclared holes"):
        TemplateGroup.parse("g", 'f(a) ::= "$a$ $b$"')


def test_unknown_template_name():
    group = TemplateGroup.parse("g", 'f(a) ::= "$a$"')
    with pytest.raises(KeyError, match="no template"):
        group.render("nope", a=1)


def test_comments_and_blanks_skipped():
    group = TemplateGroup.parse("g", "// a comment\n\nf(a) ::= \"$a$\"\n")
    assert group.render("f", a="ok") == "ok"


def test_unclosed_heredoc_rejected():
    with pytest.raises(ValueError, match="no closing"):
        TemplateGroup.parse("g", "f(a) ::= <<\n$a$\n")


def test_cuda_memcpy_template_exact_output():
    group = load_group("cuda")
    rendered = group.render("memcpy_host_to_device",
                            **{"from": "a", "to": "a", "type": "double"})
    assert rendered == ("cudaCheckError(cudaMemcpy(d_a, a + start, sizeof(double)*myN, "
                        "cudaMemcpyHostToDevice));")


def test_shipped_groups_load():
    for name in ("openmp", "cuda", "leo", "driver"):
        group = load_group(name)
        assert group.templates
