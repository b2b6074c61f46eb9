"""tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that spans lines"""
        return os.sep + text
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, class, def, the two lines of the string, return
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(_SOURCE)
    assert code_lines.code_lines(tmp_path / "pkg" / "mod.py") == 6
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == ["     6  pkg/mod.py", "     6  total", ""]
