"""bench/size.py on a hand-made source tree."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "size.py"


def test_size_counts_lines_and_def_defaults(tmp_path):
    """Two functions: the positional and keyword-only defaults of each def
    count (four), a lambda's default and *args/**kw do not, and only .py
    files are read, in subdirectories too (seven lines)."""
    (tmp_path / "a.py").write_text("def f(x, y=1, *, z=2, w):\n    return x + y + z + w\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(
        '"""Doc."""\n\n\nasync def g(a, b=None, *args, c=None, **kw):\n'
        "    return lambda d=0: d\n")
    (tmp_path / "notes.txt").write_text("def h(e=0):\n    pass\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert out == "7 lines, 4 defaulted parameters\n"
