import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "code_lines.py")
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Seven code lines: ``import os``, ``class A:``, ``def f(self):``, the two
# lines of the bracket and the two of the string that ``return`` spans.
MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os


class A:
    """A class docstring."""

    def f(self):
        """A function docstring
        over two lines."""
        x = (1,
             2)
        # another comment line

        return """a string
over two lines"""
'''


def test_code_lines_counts_only_lines_of_code_and_sums_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("y = 1\n\n\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.code_lines(tmp_path / "a.py") == 7
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out == "     7  a.py\n     1  b.py\n     8  total\n"
