"""The package's modules import each other without a cycle."""

import ast
from pathlib import Path

import mphp

PACKAGE = Path(mphp.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imports_of(source):
    """The package modules a module's ``source`` imports anywhere: at module
    level, inside functions and under ``if TYPE_CHECKING``.  A name imported
    from the package itself that is no module is ``__init__``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "mphp" or alias.name.startswith("mphp."):
                    out.add(alias.name[len("mphp.") :].split(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module or ""
            elif node.level == 0 and (node.module == "mphp" or node.module.startswith("mphp.")):
                base = node.module[len("mphp.") :]
            else:
                continue
            if base:
                out.add(base.split(".")[0])
            else:
                out.update(alias.name if alias.name in MODULES else "__init__" for alias in node.names)
    return out


def test_every_form_of_import_is_read():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "from .numerics import hermitian_eig\n"
        "if TYPE_CHECKING:\n"
        "    from .rf_precoder import RelaxedSolution\n"
        "def lazy():\n"
        "    from . import metrics as metrics_mod\n"
        "    import mphp.channel\n"
        "    from mphp.grouping import Grouping\n"
        "    from mphp import SchemeId\n"
    )
    assert imports_of(source) == {"numerics", "rf_precoder", "metrics", "channel", "grouping", "__init__"}


def test_package_imports_form_a_dag():
    graph = {module: imports_of((PACKAGE / f"{module}.py").read_text()) - {module} for module in MODULES}
    assert "rf_precoder" in graph["baselines"] and graph["numerics"] == set()
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(module) :] + [module])}")
        if module not in done:
            path.append(module)
            for other in sorted(graph[module]):
                visit(other)
            path.pop()
            done.add(module)

    for module in MODULES:
        visit(module)
