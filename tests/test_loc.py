"""tools/loc.py on canned source text and on a small tree."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", PATH)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves a code line


class Point:
    """Class docstring."""

    # a comment line
    def norm(self):
        """Function
        docstring."""
        total = sum(
            [1, 2],
        )
        text = """a string that is
not a docstring"""
        return total
'''


def test_counts_each_kind_of_line():
    # 19 lines: 5 docstring (2 module, 1 class, 2 function), 1 comment,
    # 4 blank and 9 code, the 3-line call and the 2-line string included
    assert loc.count(SOURCE) == (9, 5, 19)


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1 0 3 b.py",
        "9 5 19 pkg/a.py",
        "10 5 22 total",
    ]
