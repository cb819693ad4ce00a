"""The runtime needs only the standard library.

Every lkconvex module is imported in a fresh isolated interpreter
(python -I -S: no PYTHONPATH, no user site, and no site module, so no
site-packages and none of their .pth start-up hooks), and every top-level
module that ends up loaded must be part of the standard library or
lkconvex itself.
"""

from __future__ import annotations

import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import lkconvex

SCRIPT = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
loaded = {m.split(".")[0] for m in sys.modules}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"__main__"})))
"""


def test_package_imports_only_the_standard_library():
    src = str(Path(lkconvex.__file__).parent.parent)
    names = ["lkconvex"] + [
        f"lkconvex.{m.name}" for m in pkgutil.iter_modules(lkconvex.__path__)
    ]
    assert "lkconvex.cli" in names and "lkconvex.convexity" in names
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCRIPT, src, *names],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == ["lkconvex"]
