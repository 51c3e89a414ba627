import textwrap

from code_lines import code_lines, main

_SOURCE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import os  # a comment after code


    # a comment line
    class Thing:
        """Class docstring."""

        def method(self, a,
                   b):
            """Method
            docstring."""
            total = max(a,
                        b)
            text = """a string
    that is not a docstring"""
            """a string statement after the first"""
            return total, text


    @staticmethod
    async def later():
        \'\'\'Docstring in other quotes.\'\'\'
        if True:
            "a string statement, but not the first of a function"
    ''')


class TestCodeLines:
    def test_synthetic_source(self):
        # import 1, class 1, def 2, the call 2, the string 2, the late
        # string statement 1, return 1, decorator 1, async def 1, if 1 and
        # its string 1
        assert code_lines(_SOURCE) == 14

    def test_nothing_but_docstrings_comments_and_blanks(self):
        assert code_lines('"""doc"""\n\n# note\n') == 0
        assert code_lines("") == 0

    def test_table(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "bb.py").write_text('"""doc"""\nz = 3\n')
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "c.py").write_text("w = 4\n")
        main(str(tmp_path))
        assert capsys.readouterr().out == ("a          2\n"
                                           "bb         1\n"
                                           "total      3\n")
