"""Every function, class and method in ``src/curvatur`` has a caller."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "curvatur"


def test_every_defined_name_is_referenced(tracer):
    # a name is referenced when it appears as a whole word more often than
    # it is defined; dunders are called by Python itself.  The attributes
    # that the benchmark's traced run patches stay for as long as it does.
    t = tracer.Tracer()
    try:
        t.install()
        patched = {attr for _, attr, _ in t._saved}
    finally:
        t.uninstall()
    texts = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defs = Counter(
        node.name for text in texts for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    unreferenced = sorted(name for name, n in defs.items()
                          if words[name] <= n and name not in patched)
    assert not unreferenced, f"no caller in src/curvatur: {unreferenced}"
