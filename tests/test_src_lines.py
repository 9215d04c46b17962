"""Smoke test of ``tools/src_lines.py``: it splits every line of a module
into exactly one kind, counts the tokens the parser reads and marks a module
past the parser's 4096-token step."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,

over three lines."""

# a comment
X = 1  # code with a comment


def f(a):
    """One line."""
    return (a +
            X)
'''


def test_counts_a_known_module():
    row = src_lines.count(SOURCE)
    # tokens: STRING NEWLINE; X = 1 NEWLINE; def f ( a ) : NEWLINE; INDENT
    # STRING NEWLINE; return ( a + X ) NEWLINE; DEDENT ENDMARKER
    assert row == {"lines": 12, "code": 4, "docstring": 4, "comment": 1, "blank": 3,
                   "tokens": 25}


def test_table_of_this_checkout_adds_up():
    rows = src_lines.table()
    total = rows.pop("total")
    assert "linalg.py" in rows and "cli.py" in rows
    for row in rows.values():
        assert row["lines"] == row["code"] + row["docstring"] + row["comment"] + row["blank"]
    assert total == {c: sum(r[c] for r in rows.values()) for c in src_lines.COLUMNS}


def test_marks_a_module_past_the_token_step(tmp_path, capsys):
    pkg = tmp_path / "src" / "cocyclelab"
    pkg.mkdir(parents=True)
    # 1023 lines of NAME OP NUMBER NEWLINE, then 3 or 4 tokens and ENDMARKER
    (pkg / "at_step.py").write_text("x = 1\n" * 1023 + "y;\n")
    (pkg / "past_step.py").write_text("x = 1\n" * 1023 + "(y)\n")
    src_lines.main(["--root", str(tmp_path)])
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert rows["at_step.py"].split()[-1] == "4096"
    assert rows["past_step.py"].endswith(" 4097  past the 4096-token step")
    assert not rows["total"].endswith("step")
