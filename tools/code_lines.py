"""Print the size of each ``src/vlf`` module: its ``wc -l`` line count and
its code-line count, with the totals last.

A code line holds at least one token other than a comment, NL, NEWLINE,
INDENT or DEDENT, not counting a string that opens a statement (a
docstring); a string that opens a continuation line inside a statement
still counts.  Run from anywhere:

    python tools/code_lines.py
"""

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vlf"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(text):
    """The number of code lines in Python source text."""
    rows = set()
    prev = tokenize.NEWLINE  # the file opens a statement
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        opens = prev in _STATEMENT_START
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            prev = tok.type
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and opens):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main():
    total_wc = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16} {wc:>6} {code:>6}")
    print(f"{'total':<16} {total_wc:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
