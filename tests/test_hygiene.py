"""Source hygiene, read from the syntax trees of the package, its tests and
the benchmark: no module imports a name it never uses, and every
module-level function, class or constant of the package is named
somewhere other than in its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
READERS = SRC + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _names_in(node) -> set:
    """Every identifier the node names: variables, attributes, and string
    constants that spell one (monkeypatch targets, __all__, span tables)."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in SRC:
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and _defined(stmt) == ["__all__"]:
                used |= set(ast.literal_eval(stmt.value))
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in n.names]
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                bound = [a.asname or a.name for a in n.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}:{n.lineno} {name}" for name in bound
                       if name not in used]
    assert unused == []


def test_every_module_level_definition_is_named_elsewhere():
    statements = [(path, stmt, _names_in(stmt)) for path in READERS for stmt in _tree(path).body]
    dead = []
    for path, stmt, _ in statements:
        if path not in SRC:
            continue
        for name in _defined(stmt):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in names for _, other, names in statements
                       if other is not stmt):
                dead.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {name}")
    assert dead == []
