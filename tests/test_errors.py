"""The exception class is the exit code: `pvbs` defines two exception
classes, in its `__init__`, and every `raise` in the package names one."""

import ast
import pathlib

import pvbs

PACKAGE = pathlib.Path(pvbs.__file__).parent
EXIT_CLASSES = {"InputError", "ComputeError"}
# dumps_canonical meets a value it cannot print only by a fault of the
# program, which must propagate as a traceback rather than an exit code
PROGRAM_FAULTS = {("cli.py", "dumps_canonical"): {"ValueError", "TypeError"}}


def _raised_name(exc) -> str:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def _raises():
    """(module file, innermost enclosing function or None, raised name) of
    every `raise` that names an exception; a bare `raise` re-raises the
    exception being handled and names none."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scope = {}
        # ast.walk goes breadth first, so an inner function's name
        # overwrites its outer function's
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    scope[node] = func.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield path.name, scope.get(node), _raised_name(node.exc)


def test_only_two_exception_classes():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith(("Error", "Exception"))
                    for base in node.bases):
                defined.append((path.name, node.name))
    assert sorted(defined) == [("__init__.py", "ComputeError"),
                               ("__init__.py", "InputError")]
    assert issubclass(pvbs.InputError, ValueError)
    assert issubclass(pvbs.ComputeError, RuntimeError)


def test_every_raise_names_an_exit_class():
    names = list(_raises())
    assert names
    stray = [(module, func, name) for module, func, name in names
             if name not in EXIT_CLASSES
             | PROGRAM_FAULTS.get((module, func), set())]
    assert stray == []
