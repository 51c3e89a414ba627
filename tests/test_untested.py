import textwrap

import untested
from untested import exit_status, statements

_SOURCE = textwrap.dedent('''\
    import os


    @staticmethod
    def f(a,
          b):
        """Docstring."""
        total = max(a,
                    b)
        if total:
            return total
        return 0


    if __name__ == "__main__":
        f(1, 2)
    ''')


class TestUntested:
    def test_statements_own_their_header_lines(self):
        # the import 1, the decorated def 4-6, the call 8-9, the if 10, the
        # returns 11 and 12, the script test 15; the docstring holds no
        # bytecode and the script body runs only as a script
        owned = statements(_SOURCE)
        assert sorted(owned) == [1, 4, 8, 10, 11, 12, 15]
        assert owned[8] <= {8, 9}
        assert owned[4] <= {4, 5, 6}

    def test_lists_the_statements_no_hit_covers(self, tmp_path, monkeypatch):
        (tmp_path / "m.py").write_text(_SOURCE)
        monkeypatch.setattr(untested, "PACKAGE", tmp_path)
        hits = {str(tmp_path / "m.py"): {1, 4, 9, 10, 11, 15}}
        assert untested.untested(hits) == [(tmp_path / "m.py", 12)]
        assert untested.untested({}) == [
            (tmp_path / "m.py", line) for line in (1, 4, 8, 10, 11, 12, 15)]

    def test_any_untested_statement_fails_the_run(self, tmp_path):
        missed = [(tmp_path / "m.py", 12)]
        assert exit_status(missed, 0) == 1
        assert exit_status(missed, 1) == 1
        # with none listed, pytest's status: passed, failed, no tests
        assert [exit_status([], s) for s in (0, 1, 5)] == [0, 1, 5]
