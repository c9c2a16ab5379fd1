"""Declared dependencies are used, declared scripts resolve, every public
function is referenced, no module imports a name it never uses, the grid
half has one derivative stencil, a section's width comes from its pairing,
the exact half loads no numpy and the package loads no scipy."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
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


def public_definitions() -> list:
    """(path, line, name) of every public module-level function and method
    under src/adg2."""
    out = []
    for path in sorted((ROOT / "src" / "adg2").rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    out.append((path, node.lineno, node.name))
    return out


def code_identifiers(path: Path) -> set:
    """The identifiers that a file uses as code: names, attributes, import
    aliases and identifier-shaped string constants (benchmarks/tracing.py
    names the functions it wraps by string).  Words in docstrings and
    comments do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def test_every_public_function_is_referenced():
    used = set()
    for top in ("src", "tests", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            used |= code_identifiers(path)
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, line, name in public_definitions() if name not in used]
    assert not unused, f"public functions referenced nowhere: {unused}"


def unused_imports(path: Path) -> list:
    """(line, name) of each name that the file's import statements bind and
    its code never reads (as a name; words in strings and comments do not
    count)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    """Every name that a module under src/adg2 or tests imports is used
    there.  A package's __init__.py imports to re-export, so it is exempt."""
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for top in ("src/adg2", "tests")
              for path in sorted((ROOT / top).rglob("*.py")) if path.name != "__init__.py"
              for line, name in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_one_derivative_stencil():
    """np.gradient is called nowhere under src/adg2: gauge.diff writes its
    stencils itself, and every node derivative goes through diff (or through
    gauge.central, diff's box interior).  tests/test_gauge.py holds diff to
    np.gradient bit for bit."""
    calls = []
    for path in sorted((ROOT / "src" / "adg2").rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "gradient" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                    calls.append((path.relative_to(ROOT).as_posix(),
                                  getattr(top, "name", None)))
    assert calls == [], f"np.gradient called under src/adg2: {calls}"


def test_one_wedge_pairing():
    """hk.wedge22 is the one vol4 pairing of fibre 2-forms: gauge's slot
    table _SD_SLOTS is built by calling it, and no function outside hk.py
    is named wedge2*."""
    gauge = ast.parse((ROOT / "src" / "adg2" / "gauge.py").read_text())
    slots = [top.value for top in gauge.body if isinstance(top, ast.Assign)
             and [getattr(t, "id", None) for t in top.targets] == ["_SD_SLOTS"]]
    assert len(slots) == 1, "gauge.py must assign _SD_SLOTS once at module level"
    called = {getattr(node.func, "attr", None) or getattr(node.func, "id", None)
              for node in ast.walk(slots[0]) if isinstance(node, ast.Call)}
    assert "wedge22" in called, f"_SD_SLOTS is not built by wedge22: {called}"
    named = []
    for path in sorted((ROOT / "src" / "adg2").rglob("*.py")):
        if path.name == "hk.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("wedge2"):
                named.append((path.relative_to(ROOT).as_posix(), node.name))
    assert not named, f"a wedge pairing of 2-forms outside hk.py: {named}"


def test_width_comes_from_the_pairing():
    """A section's width is read from its pairing: adg2.maxsec has no width
    constant DIM, and maxsec.py writes no integer 22 (docstrings and
    comments, which state measured 22-wide timings, do not count)."""
    from adg2 import maxsec

    assert not hasattr(maxsec, "DIM"), "maxsec.DIM is back"
    tree = ast.parse((ROOT / "src" / "adg2" / "maxsec.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and type(node.value) is int and node.value == 22]
    assert not lines, f"integer 22 in maxsec.py at lines {lines}"


def test_one_path_rule():
    """gauge._path_trapezoid is the one path rule: gauge.cs_instanton and
    fueter.cs_associative call it, and only it uses ThreadPoolExecutor."""
    def name(node):
        return getattr(node, "attr", None) or getattr(node, "id", None)

    calls, pools = set(), set()
    for path in sorted((ROOT / "src" / "adg2").rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.relative_to(ROOT).as_posix(), getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name(node.func) == "_path_trapezoid":
                    calls.add(where)
                if isinstance(node, (ast.Name, ast.Attribute)) \
                        and name(node) == "ThreadPoolExecutor":
                    pools.add(where)
    gauge, fueter = "src/adg2/gauge.py", "src/adg2/fueter.py"
    assert {(gauge, "cs_instanton"), (fueter, "cs_associative")} <= calls, \
        f"a path functional that does not call _path_trapezoid: {calls}"
    assert pools == {(gauge, "_path_trapezoid")}, \
        f"ThreadPoolExecutor used outside _path_trapezoid: {pools}"


def test_one_star_and_one_sign_rule():
    """star3, star4 and star7_limit each call excalc.hodge._star, the one
    star routine, and _merge_sign, the one sign of reordering two blocks of
    covectors, is called only from wedge and _star."""
    callers = {"_star": set(), "_merge_sign": set()}
    for path in sorted((ROOT / "src" / "adg2").rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                    if name in callers:
                        callers[name].add((path.relative_to(ROOT).as_posix(),
                                           getattr(top, "name", None)))
    hodge, forms = "src/adg2/excalc/hodge.py", "src/adg2/excalc/forms.py"
    assert {(hodge, f) for f in ("star3", "star4", "star7_limit")} <= callers["_star"], \
        f"a star that does not go through _star: {callers['_star']}"
    assert callers["_merge_sign"] == {(forms, "wedge"), (hodge, "_star")}, \
        f"_merge_sign called outside wedge and _star: {callers['_merge_sign']}"


def test_exact_half_imports_no_numpy():
    """The command line and the exact half run without numpy, whose import
    costs about 0.1 s: a fresh interpreter imports them, runs an exact suite,
    reads a form document back through adg2.jsondoc and has still not loaded
    it."""
    code = ("import sys\n"
            "import adg2.cli, adg2.verify, adg2.excalc, adg2.g2lin, adg2.hk, adg2.spin\n"
            "from adg2.excalc import BigradedForm, Poly, form_from_json, form_to_json\n"
            "assert all(r.passed for r in adg2.verify.run_suite('excalc', 0))\n"
            "a = BigradedForm.monomial([0], [3], Poly.var(4, 2))\n"
            "assert form_from_json(form_to_json(a)) == a\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False", out.stdout + out.stderr


def test_package_imports_no_scipy():
    """numpy is the package's one numerical dependency: a fresh interpreter
    imports every adg2 module, runs a 5^3 maximal-section solve and has
    not loaded scipy."""
    code = ("import importlib, pkgutil, sys\n"
            "import adg2\n"
            "for m in pkgutil.walk_packages(adg2.__path__, 'adg2.'):\n"
            "    importlib.import_module(m.name)\n"
            "from adg2 import maxsec\n"
            "s = maxsec.affine_section((5, 5, 5), (0.25,) * 3)\n"
            "s.values[2, 2, 2, 5] += 1e-3\n"
            "out = maxsec.solve_dirichlet(s)\n"
            "assert out.converged and out.iterations > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
