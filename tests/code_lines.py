"""Count the code lines of ``src/ramkit``, module by module.

A code line is a physical line that holds at least one token other than a
comment, a docstring or a line break.  A docstring is a string literal that
stands as a statement of its own: the first token of a file, or the first
after a NEWLINE, INDENT or DEDENT.  A statement that continues over several
lines counts each line it touches.  Blank lines and comment-only lines do
not count.

Run from the repository root::

    python3 tests/code_lines.py

It prints one ``<count> <module>`` line per module and a ``total`` line.
It only reports, and always exits 0.
"""

from __future__ import annotations

import pathlib
import tokenize

IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: pathlib.Path) -> int:
    lines: set[int] = set()
    previous = None  # the type of the last token that is not NL or a comment
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in IGNORED:
                continue
            docstring = tok.type == tokenize.STRING and previous in STATEMENT_START
            if tok.type not in LAYOUT and not docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
            previous = tok.type
    return len(lines)


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "ramkit"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
