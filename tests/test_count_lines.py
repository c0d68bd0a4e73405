import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _SCRIPT)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)


def test_code_lines_skip_comments_docstrings_and_blanks(tmp_path):
    source = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that
        is not a docstring"""
        return math.pi, text
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, def, the two lines of the string, return
    assert count_lines.counts(str(path)) == (6, source.count("\n"))


def test_prints_one_line_per_file(tmp_path, capsys):
    path = tmp_path / "one.py"
    path.write_text("x = 1\n")
    assert count_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: 1 code lines, 1 lines\n"
