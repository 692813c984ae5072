"""The package as a whole: its lazy namespace, what a CLI process imports, and
its dependencies.

A process that cannot write a bytecode cache (PYTHONDONTWRITEBYTECODE)
compiles every module it imports, so the start-up budget is checked in fresh
``python -m splitgamma.cli`` processes: ``-X importtime`` lists each module
the run imports, and a bare interpreter in the same environment gives the
modules the site preloads anyway.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import splitgamma

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitgamma"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# every name the package exported when its __init__ imported each submodule eagerly, by the module
# that now defines it, less the names only the tests called
EXPORTS = {
    "core": "DomainError InvariantViolation ResourceLimitError BruteForceReport SplitInstance SplitSolution"
    " brute_force_split gamma mod_inverse solve_split",
    "sequences": "Arithmetic Balancing Explicit FactorialPower FibonacciLike FibonacciPower KthPower"
    " LucasBalancing Naturals Odds PowerRecurrence SequenceSpec ShiftedGeometric fib fib_pair fiblike_pair"
    " format_spec iter_terms parse_spec term term_mod",
    "identities": "OddrResult closed_form_mod6_4 fib_cube_solution fib_identity_solution fib_square_solution"
    " first_alternation_index oddr phi_psi",
    "periodicity": "BitRow InconclusiveError PeriodReport StatePeriod detect_period fibonacci_period_table"
    " gamma_row pair_row pisano row_period state_period_mod",
    "density": "DensityTrace build_density_sequence verify_growth_bounds",
    "explorer": "NVarReport ScanRecord beiter_density nvar_classify rs_solve run_scan",
}


# ---------------- lazy namespace ----------------


def test_every_exported_name_is_the_submodule_object():
    star: dict = {}
    exec("from splitgamma import *", star)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"splitgamma.{module}")
        for name in names.split():
            assert getattr(splitgamma, name) is getattr(mod, name), (module, name)
            assert star[name] is getattr(mod, name), (module, name)
            assert name in dir(splitgamma)
    assert splitgamma.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splitgamma.no_such_name
    assert not hasattr(splitgamma, "_witness")


def test_moved_names_are_one_object():
    from splitgamma import core, periodicity

    assert periodicity.InconclusiveError is core.InconclusiveError


# ---------------- start-up budget ----------------


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, cwd=ROOT, check=False)


@pytest.fixture(scope="module")
def preloaded() -> set[str]:
    out = _python("-c", "import sys; print(sorted(sys.modules))").stdout
    return set(ast.literal_eval(out))


def _imports(preloaded: set[str], *args: str) -> set[str]:
    # modules a fresh process imports beyond a bare interpreter, from its -X importtime lines
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return names - preloaded - {"imported package"}


def test_import_splitgamma_loads_no_submodule(preloaded):
    assert {m for m in _imports(preloaded, "-c", "import splitgamma") if m.startswith("splitgamma")} == {"splitgamma"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "7", "14"],
        ["solve", "7", "10"],
        ["row", "--k", "7", "--seq", "fib", "--count", "12"],
        ["pisano", "10"],
        ["rs", "--a", "7", "--b", "10"],
        ["nvar", "3", "5", "7"],
        ["beiter-scan", "--xmax", "5", "--out", "{tmp}/scan.csv"],
        ["verify", "--family", "mod6-4", "--range", "1:3"],
    ],
)
def test_text_commands_load_no_number_or_format_modules(preloaded, argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    heavy = _imports(preloaded, "-m", "splitgamma.cli", *argv) & {"fractions", "decimal", "json", "csv"}
    assert not heavy, heavy


# one argv per CLI command; the dataclass machinery would load all five modules
ALL_COMMANDS = [
    ["gamma", "7", "14"],
    ["solve", "7", "10"],
    ["row", "--k", "5", "--seq", "fib", "--count", "20"],
    ["period", "--k", "5", "--seq", "fib"],
    ["pisano", "10"],
    ["table1", "--kmax", "3"],
    ["density", "--p", "1/2", "--n", "10"],
    ["verify", "--family", "fib", "--range", "6:12"],
    ["nvar", "3", "5", "7"],
    ["rs", "--a", "7", "--b", "10"],
    ["beiter-scan", "--xmax", "5"],
]


def test_all_commands_are_listed():
    from splitgamma.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv in ALL_COMMANDS) == sorted(sub.choices)


# the package modules each command compiles besides the running cli (its __main__) and the package itself
COMPILED = {
    "--help": {"core"},
    "gamma": {"core"},
    "solve": {"core"},
    "row": {"core", "sequences", "periodicity"},
    "period": {"core", "sequences", "periodicity"},
    "pisano": {"core", "sequences", "periodicity"},
    "table1": {"core", "sequences", "periodicity"},
    "density": {"core", "density"},
    "verify": {"core", "sequences", "identities"},
    "nvar": {"core", "explorer"},
    "rs": {"core", "explorer"},
    "beiter-scan": {"core", "explorer"},
}


@pytest.mark.parametrize(
    "argv",
    [["--help"], *ALL_COMMANDS, ["solve", "7", "10", "--oracle"]],
    ids=["--help", *(argv[0] for argv in ALL_COMMANDS), "solve-oracle"],
)
def test_each_command_compiles_only_its_own_modules(preloaded, argv):
    # a handler module that imported splitgamma.cli would compile the front end a second time
    package = {m for m in _imports(preloaded, "-m", "splitgamma.cli", *argv) if m.startswith("splitgamma.")}
    assert package == {f"splitgamma.{m}" for m in COMPILED[argv[0]]}, package


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=[argv[0] for argv in ALL_COMMANDS])
def test_no_command_loads_the_dataclass_machinery(preloaded, argv):
    machinery = _imports(preloaded, "-m", "splitgamma.cli", *argv) & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert not machinery, machinery


# ---------------- one output site ----------------


def _output_sites(path):
    # (line, what) for every print and every sys.stdout or sys.stderr the module names, on any path
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and node.id == "print":
            yield node.lineno, "print"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sys" \
                and node.attr in ("stdout", "stderr"):
            yield node.lineno, f"sys.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            yield from ((node.lineno, f"sys.{a.name}") for a in node.names if a.name in ("stdout", "stderr", "*"))


def test_only_the_cli_prints():
    # handlers return their result and cli.main prints it, error paths included
    found = [f"{path.name}:{line} {what}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for line, what in _output_sites(path)]
    assert found == []
    assert {what for _, what in _output_sites(PACKAGE / "cli.py")} == {"print", "sys.stdout", "sys.stderr"}


# ---------------- oracles stay off the fast paths ----------------


def _mentions(path, name):
    # (lines that read name, as a name or an attribute; lines that import it)
    tree = ast.parse(path.read_text(), str(path))
    reads = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name}
    imports = {node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name == name for a in node.names)}
    return reads, imports


def test_oracles_stay_off_the_fast_paths():
    # the brute-force enumeration runs only in solve --oracle
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("core.py", "cli.py"):
            assert _mentions(path, "brute_force_split") == (set(), set()), path.name
    oracle_branch = {line for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
                     if isinstance(node, ast.If) and ast.unparse(node.test) == "args.oracle"
                     for line in range(node.lineno, node.end_lineno + 1)}
    reads, _ = _mentions(PACKAGE / "cli.py", "brute_force_split")
    assert reads and reads <= oracle_branch, reads - oracle_branch
    # the density chain reads its bits off its branches
    for name in ("gamma", "_split", "solve_split"):
        assert _mentions(PACKAGE / "density.py", name) == (set(), set()), name


# ---------------- dependencies ----------------


def _package_imports():
    # (file, line, top-level module) of every absolute import in the package
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                yield path.name, node.lineno, top


def test_the_package_imports_only_the_standard_library():
    for name, line, top in _package_imports():
        assert top in sys.stdlib_module_names, f"{name}:{line} imports {top}"


def test_no_module_imports_dataclasses():
    # records are core.Record values: importing dataclasses costs every process its start-up
    assert [f"{name}:{line}" for name, line, top in _package_imports() if top == "dataclasses"] == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
