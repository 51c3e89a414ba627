"""Count a module's code lines: its lines without docstrings, comments and
blank lines.

A line counts when a token other than a comment starts on it or a
multi-line token (a string, say) runs through it.  A docstring is the
first statement of a module, class or function when that statement is a
string alone; its lines do not count.

Run as ``python tests/code_lines.py src/gridfreq``: it prints the count
of each module directly in the directory (or of the one file named), then
their total.
"""

import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the Python source."""
    lines = set()
    statement = []
    # the statement before this one opens a module, class or function body
    opens_body = True
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not (opens_body and all(t.type == tokenize.STRING for t in statement)):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        opens_body = (statement[0].string in ("def", "class", "async")
                      and statement[-1].string == ":")
        statement = []
    return len(lines)


def main(path: str) -> None:
    root = Path(path)
    files = sorted(root.glob("*.py")) if root.is_dir() else [root]
    counts = {f.stem: code_lines(f.read_text(encoding="utf-8")) for f in files}
    width = max(map(len, ["total", *counts]))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main(sys.argv[1])
