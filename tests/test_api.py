"""The package surface: what ``import treemodulus`` offers to its callers.

Checked in a fresh interpreter so that no earlier import in the same
pytest run can supply a module the package itself failed to load.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import treemodulus

ROOT = Path(__file__).resolve().parents[1]

CHECK = r"""
import importlib.util, sys
import treemodulus

missing = [name for name in treemodulus.__all__ if not hasattr(treemodulus, name)]
assert not missing, f"__all__ names that do not resolve: {missing}"
assert "treemodulus.oracle" in sys.modules, "treemodulus.oracle not loaded on import"

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
# modulus peels without calling vulnerability, so that one hook finds nothing
# to wrap; every other hook's name must still resolve
UNBOUND = {("treemodulus.modulus", "vulnerability")}
for module_name, attr, _span in tracing.HOOKS:
    bound = callable(getattr(sys.modules[module_name], attr, None))
    assert bound != ((module_name, attr) in UNBOUND), (module_name, attr)

exec(sys.argv[2], {})
print("ok")
"""


def readme_library_snippet() -> str:
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_import_surface_in_fresh_interpreter():
    src = str(Path(treemodulus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "perfbench" / "tracing.py"),
         readme_library_snippet()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_readme_names_exactly_the_public_api():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"`__all__` is:(.*?)\n\n", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(treemodulus.__all__)


def identifiers(node) -> set[str]:
    """Every name, attribute, imported name and identifier-like string under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)  # getattr targets such as tracing.HOOKS
    return found


def test_src_holds_no_test_only_code():
    # roots: what perfbench/ and scripts/ name, the package's __all__ and
    # the console script; reach then follows, by name, every identifier in
    # the body of each reached top-level function, class or constant
    pyproject = (ROOT / "pyproject.toml").read_text()
    roots = {re.search(r'treemod = "treemodulus\.cli:(\w+)"', pyproject).group(1)}
    roots |= set(treemodulus.__all__)
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        roots |= identifiers(ast.parse(path.read_text()))
    defined: dict[str, list[tuple[str, ast.AST]]] = {}
    for path in sorted((ROOT / "src" / "treemodulus").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Expr)):
                continue  # imports and docstrings reach nothing by themselves
            else:
                roots |= identifiers(stmt)  # runs on import, e.g. __main__
                continue
            for name in names:
                defined.setdefault(name, []).append((path.stem, stmt))
    reached: set[str] = set()
    frontier = roots & defined.keys()
    while frontier:
        reached |= frontier
        frontier = {
            name
            for reached_name in frontier
            for _module, stmt in defined[reached_name]
            for name in identifiers(stmt) & defined.keys()
        } - reached
    offenders = sorted(
        f"{module}.{name}"
        for name, places in defined.items()
        if name not in reached and not (name.startswith("__") and name.endswith("__"))
        for module, _stmt in places
    )
    assert not offenders, f"src/ code that no caller outside tests/ reaches: {offenders}"
