"""Declared dependencies are used and declared scripts resolve."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def imported_top_level_modules() -> set:
    names = set()
    for path in (ROOT / "src" / "adg2").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def module_name(requirement: str) -> str:
    """Import name of a requirement such as "scipy>=1.10" (PEP 503 normalised)."""
    return re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0).lower().replace("-", "_")


def test_every_dependency_is_imported():
    imported = imported_top_level_modules()
    unused = [req for req in PROJECT.get("dependencies", [])
              if module_name(req) not in imported]
    assert not unused, f"declared but never imported under src/adg2: {unused}"


def test_every_script_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    missing = [target for target in PROJECT.get("scripts", {}).values()
               if importlib.util.find_spec(target.split(":")[0]) is None]
    assert not missing, f"script targets that do not resolve: {missing}"
