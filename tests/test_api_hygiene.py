"""Every public name of the package is used by the package itself.

A public module-level function or class, or a public method, that no
line of ``src/`` refers to is API that only the tests or the benchmark
read; it either gets a caller or goes.  ``cli`` is exempt: its functions
are subcommands, registered by a decorator and reached by name from the
command line.
"""

import ast
from pathlib import Path

import cocyclelab

SRC = Path(cocyclelab.__file__).parent

#: public names with no caller in ``src/`` that the benchmark calls, each
#: kept until the benchmark carries its own copy
BENCHMARK_ONLY = {
    "cocycle.golden_base": "perfbench's tracer test builds its Schrodinger shift with it",
    "random_products.MatrixDistribution.sample_sequence":
        "perfbench's random-streams check redraws each trial's factors with it",
}


def public_definitions(module: str, tree: ast.Module):
    """Dotted names of the public functions and classes of ``tree`` and of
    the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}"


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    defined = [name for module, tree in trees.items() if module != "cli"
               for name in public_definitions(module, tree)]
    unused = [name for name in defined if name.rsplit(".", 1)[1] not in used]
    assert sorted(unused) == sorted(BENCHMARK_ONLY)
