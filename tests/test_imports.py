"""Importing the package pulls in neither scipy nor mpmath, and every module
states its package dependencies in its import block.

Both are installed for the tests and the benchmark's references only.
Importing scipy.linalg after numpy takes the peak resident set of a Python
process from about 27 MB to about 55 MB.
"""
import ast
import os
import pkgutil
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# every module of the package, so a new one cannot skip the check
MODULES = [m.name for m in pkgutil.iter_modules([os.path.join(SRC, "rabispec")])]


def test_package_imports_neither_scipy_nor_mpmath():
    code = ("import sys\n"
            + "".join(f"import rabispec.{m}\n" for m in MODULES)
            + "assert rabispec.__file__.startswith(sys.argv[1]), rabispec.__file__\n"
            + "loaded = [m for m in ('scipy', 'mpmath') if m in sys.modules]\n"
            + "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, SRC], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_package_import_inside_a_function():
    # a function-local import hides a dependency, or an import cycle, from
    # the module's import block
    found = set()
    for m in MODULES:
        with open(os.path.join(SRC, "rabispec", m + ".py")) as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{m}.py:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom) and node.level > 0)
    assert not found, sorted(found)


def test_analytic_import_leaves_numpy_polynomial_unloaded():
    # the Chebyshev roots come from np.linalg.eigvals; loading
    # numpy.polynomial would add about 2.5 ms to the import of the package
    code = ("import sys\n"
            "import rabispec, rabispec.analytic\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
