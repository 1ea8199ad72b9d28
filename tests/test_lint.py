"""Source checks that hold for the whole tree."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Each function, class and assigned name defined at the top of a module, with its line."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(n.id, n.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_module_level_name_in_the_package_is_named_elsewhere():
    # An unused helper is code that no caller keeps honest. A name counts as
    # used when any line of src/, tests/ or perfbench/ other than the one
    # defining it names it as a whole word. Dunder names such as __all__ are
    # read by Python and its tools, not by a line that names them.
    lines: dict[tuple[Path, int], set[str]] = {}
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                lines[path, number] = set(re.findall(r"\w+", line))
    naming = Counter(word for words in lines.values() for word in words)
    unused = []
    for path in sorted((ROOT / "src" / "jarcompat").rglob("*.py")):
        for name, number in module_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            others = naming[name] - (name in lines[path, number])
            if not others and not re.fullmatch(r"__\w+__", name):
                unused.append(f"{path.relative_to(ROOT)}:{number}: {name}")
    assert unused == []


def test_no_module_in_the_package_reads_the_environment():
    # Every setting comes from the command line, so a command's result
    # depends on its arguments and inputs alone, never on a variable its
    # caller may not know is set.
    reading = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted((ROOT / "src" / "jarcompat").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr] if isinstance(node.value, ast.Name) and node.value.id == "os" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.relative_to(ROOT)}:{node.lineno}: os.{n}" for n in names if n in reading]
    assert reads == []


def imported_names(path: Path, node: ast.ImportFrom) -> set[tuple[str, str]]:
    """(module, name) for each name a ``from ... import`` takes, with a
    relative module resolved against the package of ``path`` under src/."""
    module = node.module or ""
    if node.level:
        package = path.relative_to(ROOT / "src").parts[:-1]
        base = package[: len(package) - node.level + 1]
        module = ".".join((*base, *filter(None, module.split("."))))
    return {(module, alias.name) for alias in node.names}


def test_every_name_a_package_exports_is_imported_through_it():
    # A name in a package's __all__ that no module imports through the
    # package is an export no caller takes: whoever needs it imports it from
    # the module that defines it.
    imported: set[tuple[str, str]] = set()
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    imported |= imported_names(path, node)
    unused = []
    for init in sorted((ROOT / "src").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(ROOT / "src").parts)
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = ast.literal_eval(node.value)
                unused += [f"{package}.{name}" for name in exported if (package, name) not in imported]
    assert unused == []


def os_names_by_function(node: ast.AST, function: str | None = None) -> list[tuple[str | None, int, str]]:
    """(innermost enclosing function, line, name) for each name under ``node``
    that is an attribute of ``os``, imported from ``os`` or a string, as
    ``hasattr(os, ...)`` takes it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
        names = [node.attr]
    elif isinstance(node, ast.ImportFrom) and node.module == "os":
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [node.value]
    else:
        names = []
    found = [(function, node.lineno, name) for name in names]
    for child in ast.iter_child_nodes(node):
        found += os_names_by_function(child, function)
    return found


def test_only_the_process_layer_forks_or_places_processes():
    # corpus.run_forked alone decides whether to fork, usable_cpus how many
    # CPUs there are to use and _run_placed where each process runs, so no
    # caller asks the platform whether it can fork or place a process.
    process_calls = {"fork", "sched_getaffinity", "sched_setaffinity"}
    owners = {"run_forked", "_run_placed", "usable_cpus"}
    named = []
    for path in sorted((ROOT / "src" / "jarcompat").rglob("*.py")):
        named += [
            f"{path.relative_to(ROOT)}:{line}: {name} in {function or 'the module'}"
            for function, line, name in os_names_by_function(ast.parse(path.read_text(encoding="utf-8")))
            if name in process_calls and function not in owners
        ]
    assert named == []
