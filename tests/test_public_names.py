"""Every public module-level function and class in src/mtlab, and every
public method and property of those classes, has a caller.

A name counts as used when some Name or Attribute node in src/ or
perfbench/ refers to it outside its own definition. Tests do not count:
a public name that only tests reach is API the program does not need.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _referenced(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_public_definition_is_used_outside_tests():
    files = sorted((ROOT / "src" / "mtlab").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    files = [f for f in files if "tests" not in f.relative_to(ROOT).parts]
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    uses = Counter()
    for tree in trees.values():
        uses += _referenced(tree)
    unused = []
    for path, tree in trees.items():
        if ROOT / "perfbench" in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for d in defs:
                if uses[d.name] - _referenced(d)[d.name] <= 0:
                    unused.append(f"{path.relative_to(ROOT)}: {d.name}")
    assert not unused, f"public names no program uses: {unused}"
