"""The rule of `tests/code_lines.py`: a code line holds a token other
than a comment, and docstrings do not count."""

from code_lines import code_lines, main

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
x = (1 +
     2)  # a comment after code


class C:
    """A class docstring."""
    y = "a string that is no docstring"

    def f(self):
        """A function
        docstring."""
        return x
'''


def test_code_lines_count_tokens_and_skip_docstrings_comments_and_blanks():
    # x = (1 +, 2), class C:, y = ..., def f(self):, return x
    assert code_lines(SOURCE) == 6


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# nothing but a comment\n\nz = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     6 a.py", "     1 b.py", "     7 total", ""]
