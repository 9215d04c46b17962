"""Line and token counts of the package source, per module and in total.

    python3 tools/src_lines.py [--root CHECKOUT]

Prints one row per module of ``--root``'s ``src/cocyclelab`` (default this
checkout) and a total row: all lines, then code, docstring, comment and
blank lines, then tokens.  A line inside a docstring (a string statement
first in a module, class or function body) is a docstring line; of the
rest, a line holding only whitespace is blank, one whose first token is a
comment is a comment line, and every other line is code.  Tokens are those
of ``tokenize`` without comments and line breaks that end no statement,
the tokens CPython's parser reads: compiling a module that holds more
than 4096 of them grows the parser's token array a second time, and its
compile peak by about 0.2 MiB, so each such module's row ends with a mark.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("lines", "code", "docstring", "comment", "blank", "tokens")
#: CPython 3.11's parser grows its token array a second time past this many tokens
TOKEN_STEP = 4096


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The :data:`COLUMNS` of one module's source."""
    doc = docstring_lines(ast.parse(source))
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    first_kind = {}
    for tok in tokens:
        first_kind.setdefault(tok.start[0], tok.type)
    lines = source.splitlines()
    row = dict.fromkeys(COLUMNS, 0)
    row["lines"] = len(lines)
    for i, text in enumerate(lines, start=1):
        if i in doc:
            row["docstring"] += 1
        elif not text.strip():
            row["blank"] += 1
        elif first_kind.get(i) == tokenize.COMMENT:
            row["comment"] += 1
        else:
            row["code"] += 1
    row["tokens"] = sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)
    return row


def table(root: Path = ROOT) -> dict[str, dict[str, int]]:
    """Counts per module of ``root``'s package, in name order, then ``total``."""
    rows = {path.name: count(path.read_text())
            for path in sorted((root / "src" / "cocyclelab").glob("*.py"))}
    rows["total"] = {c: sum(r[c] for r in rows.values()) for c in COLUMNS}
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to count (default: this one)")
    args = ap.parse_args(argv)
    print(f"{'module':<20}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, row in table(args.root).items():
        past = name != "total" and row["tokens"] > TOKEN_STEP
        print(f"{name:<20}" + "".join(f"{row[c]:>10}" for c in COLUMNS)
              + (f"  past the {TOKEN_STEP}-token step" if past else ""))


if __name__ == "__main__":
    main()
