"""Every public module-level function and class in src/mtlab, and every
public method and property of those classes, has a caller; each name a
package's ``__init__`` imports from its submodules is imported through
that package by some other module; and the modules of src/mtlab import
each other only at module level, with no cycle, and use no other
module's private names.

A name counts as used when some Name or Attribute node in src/ or
perfbench/ refers to it outside its own definition, and a re-export when
some ``from <package> import`` there names it. Tests do not count: a
public name that only tests reach is API the program does not need.
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


def _program_trees() -> dict:
    """Path -> syntax tree of each module of src/ and perfbench/, tests excluded."""
    files = sorted((ROOT / "src" / "mtlab").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {f: ast.parse(f.read_text(encoding="utf-8"))
            for f in files if "tests" not in f.relative_to(ROOT).parts}


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT).with_suffix("").parts
    parts = parts[1:] if parts[0] == "src" else parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_source(path: Path, node: ast.ImportFrom) -> str:
    """The absolute name of the module ``node`` in the file ``path`` imports from."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    base = package.rsplit(".", node.level - 1)[0] if node.level else ""
    return ".".join(filter(None, (base, node.module)))


def test_every_public_definition_is_used_outside_tests():
    trees = _program_trees()
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


def test_package_reexports_are_imported_through_the_package():
    trees = _program_trees()
    imported = set()  # (module, name) of each `from module import name` outside the packages
    for path, tree in trees.items():
        if path.name != "__init__.py":
            imported |= {(_import_source(path, node), alias.name) for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path, tree in trees.items():
        if path.name != "__init__.py":
            continue
        package = _module_name(path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and _import_source(path, node).startswith(package + ".")):
                unused += [f"{package}.{alias.asname or alias.name}" for alias in node.names
                           if (package, alias.asname or alias.name) not in imported]
    assert not unused, f"package names no program imports through the package: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _cycle(graph: dict) -> list:
    """One import cycle of ``graph`` (module -> modules it imports), or []."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in sorted(graph.get(module, ())):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        found = visit(module)
        if found:
            return found
    return []


def test_modules_import_at_top_without_cycles_or_private_names():
    files = {_module_name(f): f for f in sorted((ROOT / "src" / "mtlab").rglob("*.py"))}
    problems, graph = [], {}
    for module, path in files.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[module] = set()
        aliases = set()  # names this module binds to other mtlab modules
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                problems.append(f"{module}:{node.lineno} imports inside a function or block")
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in files:
                        graph[module].add(alias.name)
                        aliases.add(alias.asname or alias.name)
                continue
            source = _import_source(path, node)
            if source not in files:
                continue
            for alias in node.names:
                target = f"{source}.{alias.name}"
                if target in files:
                    graph[module].add(target)
                    aliases.add(alias.asname or alias.name)
                else:
                    graph[module].add(source)
                    if _private(alias.name):
                        problems.append(f"{module}:{node.lineno} imports {source}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                problems.append(f"{module}:{node.lineno} uses {node.value.id}.{node.attr}")
        graph[module].discard(module)
    cycle = _cycle(graph)
    if cycle:
        problems.append("import cycle " + " -> ".join(cycle))
    assert not problems, problems
