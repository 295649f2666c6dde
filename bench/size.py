#!/usr/bin/env python3
"""Size of the package source: its line count and its defaulted parameters.

Counts the lines of every .py file under a source tree (default: this
checkout's src/) and the defaults of every def there, positional and
keyword-only, the figures ROADMAP.md gives for src/.

    python3 bench/size.py
    python3 bench/size.py ../parent/src
"""

import ast
import sys
from pathlib import Path


def size(root):
    """(lines, defaulted parameters) of the .py files under root."""
    lines = defaults = 0
    for path in sorted(Path(root).rglob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                defaults += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return lines, defaults


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    print("%d lines, %d defaulted parameters" % size(root))
