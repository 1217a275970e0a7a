"""The package surface: what ``import treemodulus`` offers to its callers.

Checked in a fresh interpreter so that no earlier import in the same
pytest run can supply a module the package itself failed to load.
"""

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
for module_name, attr, _span in tracing.HOOKS:
    assert callable(getattr(sys.modules[module_name], attr, None)), (module_name, attr)

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
