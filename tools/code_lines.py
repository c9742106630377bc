"""Print the size of each ``src/vlf`` module: its ``wc -l`` line count and
its code-line count, with the totals next, and last the settable surface
of the command line: its flag count and its verb-option pair count, from
the ``_OPTIONS`` and ``_VERB_OPTS`` tables of ``cli.py`` (read as source,
not imported; ``--help`` is not counted).

A code line holds at least one token other than a comment, NL, NEWLINE,
INDENT or DEDENT, not counting a string that opens a statement (a
docstring); a string that opens a continuation line inside a statement
still counts.  Run from anywhere:

    python tools/code_lines.py
"""

import ast
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


def cli_surface(text):
    """(flags, verb-option pairs) of the CLI source text: the keys of its
    _OPTIONS table and the entries of its _VERB_OPTS tuples, where a
    starred name spreads the module-level tuple it names."""
    values = {node.targets[0].id: node.value for node in ast.parse(text).body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}

    def entries(node):
        return sum((entries(values[e.value.id]) if isinstance(e, ast.Starred)
                    else 1 for e in node.elts), 0)

    verbs = values["_VERB_OPTS"].values
    return len(values["_OPTIONS"].keys), sum(map(entries, verbs))


def main():
    total_wc = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16} {wc:>6} {code:>6}")
    print(f"{'total':<16} {total_wc:>6} {total_code:>6}")
    flags, pairs = cli_surface((SRC / "cli.py").read_text(encoding="utf-8"))
    print(f"cli: {flags} flags, {pairs} verb-option pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
