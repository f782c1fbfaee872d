import ast
from collections import Counter
from pathlib import Path


def test_no_test_module_defines_a_top_level_name_twice():
    # a second def silently replaces the first, whose test then never runs
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = Counter(node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        assert [n for n, c in names.items() if c > 1] == [], path.name
