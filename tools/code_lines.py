"""Print the count of code lines in each of src/kapteyn/*.py, then their
total: lines that are not blank, not comments and not module, class or
function docstrings.

    python3 tools/code_lines.py
"""

import ast
import pathlib

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

total = 0
for path in sorted(pathlib.Path(__file__).resolve().parents[1].glob("src/kapteyn/*.py")):
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = sum(1 for i, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    print(path.name, lines)
    total += lines
print("total", total)
