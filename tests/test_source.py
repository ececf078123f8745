import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import tlg

SOURCES = sorted(Path(tlg.__file__).parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, and an AssertionError reads as
    # a broken invariant, so no check of the package may rely on either;
    # raise a domain exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_undeclared_heavy_imports_in_the_package():
    # none is a declared dependency; sympy only helps to write catalog
    # data offline, importing numpy alone adds about 14 MiB of memory, and
    # the command line is parsed by the standard library's argparse
    found = [f"{path.name}: {name}"
             for path in SOURCES
             for name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] in ("sympy", "numpy", "click")]
    assert found == []


def _python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports this package, run with args; its
    output is captured as text, with help formatted for 80 columns."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [str(Path(tlg.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def _fresh_interpreter(code: str) -> str:
    """The standard output of code run in a new interpreter that imports
    this package."""
    done = _python("-c", code)
    done.check_returncode()
    return done.stdout


def test_importing_the_command_line_loads_no_undeclared_package():
    # a fresh interpreter, since this one may have loaded click elsewhere
    out = _fresh_interpreter("import sys, tlg.cli; print(sorted({'click', "
                             "'numpy', 'sympy'} & set(sys.modules)))")
    assert out == "[]\n"


_LOADED_TLG_MODULES = ("print(' '.join(sorted(m for m in sys.modules "
                       "if m == 'tlg' or m.startswith('tlg.'))))")


def test_importing_the_command_line_loads_only_what_catalog_verify_needs():
    # the modules of single commands are imported inside those commands
    out = _fresh_interpreter("import sys, tlg.cli; " + _LOADED_TLG_MODULES)
    assert out.split() == ["tlg", "tlg.builders", "tlg.catalog", "tlg.cli",
                           "tlg.intlinalg", "tlg.laurent", "tlg.polytope",
                           "tlg.series"]


def test_catalog_verify_loads_no_single_command_module():
    out = _fresh_interpreter(
        "import contextlib, io, sys\n"
        "from tlg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['catalog', 'verify', '--order', '2', "
        "'--id', '1-17'])\n"
        "print(code)\n" + _LOADED_TLG_MODULES)
    code, loaded = out.splitlines()
    assert code == "0"
    assert not {"tlg.grassmann", "tlg.hodge", "tlg.lattice", "tlg.mutation",
                "tlg.picard_fuchs"} & set(loaded.split())


# every leaf of a parser, as the words that name it
_LEAVES = """
import argparse
def leaves(p, prefix=()):
    subs = [a for a in p._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [' '.join(prefix)]
    return [leaf for name, q in subs[0].choices.items()
            for leaf in leaves(q, prefix + (name,))]
"""


def test_catalog_verify_compiles_and_registers_only_the_catalog_group():
    # the other commands and the model families only they build are
    # imported, and their parsers built, when a command needs them
    out = _fresh_interpreter(
        "import contextlib, io, sys\n" + _LEAVES +
        "from tlg.cli import _COMMANDS, _parser, main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['catalog', 'verify', '--order', '2', '--id', '1-17'])\n"
        "    main(['catalog', 'list'])\n"
        "print(sorted(name for name, _, _ in _COMMANDS))\n"
        "print(leaves(_parser(False)), _parser.cache_info().currsize)\n"
        + _LOADED_TLG_MODULES)
    registered, built, loaded = out.splitlines()
    assert registered == "['catalog list', 'catalog verify']"
    assert built == "['catalog verify', 'catalog list'] 1"
    assert not {"tlg.commands", "tlg.delpezzo", "tlg.minkowski",
                "tlg.wci"} & set(loaded.split())


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in ast.unparse(d) for d in node.decorator_list)


# the lines of the modules `import tlg.cli` loads: 3010 before supplied
# certificates moved to tlg.minkowski and exact division to tlg.mutation,
# 2842 before a polynomial carried its checked factors, 2823 before the
# Smith form moved to tlg.lattice, 2755 before the polygon edge walk moved
# to tlg.delpezzo; raising it is a deliberate choice to compile more on
# every start
COMMAND_LINE_LINES = 2750


def test_importing_the_command_line_compiles_few_lines_and_dataclasses():
    # a fresh `tlg` process compiles every line of these modules, and
    # creating a frozen dataclass takes about 1 ms against 0.1 ms for a
    # NamedTuple, so a record with no __post_init__ is a NamedTuple
    out = _fresh_interpreter(
        "import sys, tlg.cli\n"
        "for name, m in sorted(sys.modules.items()):\n"
        "    if name == 'tlg' or name.startswith('tlg.'):\n"
        "        print(m.__file__)\n")
    sources = [Path(p).read_text() for p in out.splitlines()]
    dataclasses = [node.name for text in sources
                   for node in ast.walk(ast.parse(text)) if _is_dataclass(node)]
    assert len(sources) == 8
    assert len(dataclasses) <= 4, dataclasses
    assert sum(len(text.splitlines()) for text in sources) \
        <= COMMAND_LINE_LINES


ROOT_HELP = """\
usage: tlg [-h] COMMAND ...

Exact arithmetic tools for Laurent polynomial mirror models.

positional arguments:
  COMMAND
    phi       Constant-term period series of a Laurent polynomial.
    iseries   Regularized I-series from geometric input.
    verify    Compare the period of a Laurent polynomial with a target series.
    build     Construct Laurent polynomial models.
    minkowski
              Minkowski decompositions of Newton polytope facets.
    mutate    Apply an elementary mutation pivot -> pivot / factor.
    polytope  Lattice polytope queries.
    lattice   Even lattice invariants.
    pf        Differential operators annihilating period series.
    hodge     Hodge number bookkeeping for mirror models.
    catalog   Bundled model catalog.

options:
  -h, --help  show this help message and exit
"""

EVERY_COMMAND = [
    "phi", "iseries wci", "iseries grass", "iseries toric", "verify",
    "build wci", "build grass", "build delpezzo", "build binomial",
    "minkowski check", "mutate", "polytope hull", "polytope dual",
    "polytope reflexive", "polytope volume", "polytope points",
    "polytope equiv", "lattice disc", "lattice sig", "lattice index",
    "lattice duval", "pf fit", "hodge surface", "hodge threefold",
    "hodge components", "hodge kmatrix", "catalog verify", "catalog list"]


def test_help_lists_every_command_in_its_order():
    # a bare --help builds the whole tree, the catalog group last
    out = _fresh_interpreter(
        "import contextlib, io\n" + _LEAVES +
        "from tlg.cli import _parser, main\n"
        "text = io.StringIO()\n"
        "with contextlib.redirect_stdout(text):\n"
        "    code = main(['--help'])\n"
        "print(code, leaves(_parser(True)))\n"
        "print(text.getvalue(), end='')\n")
    status, help_text = out.split("\n", 1)
    assert status == f"0 {EVERY_COMMAND}"
    assert help_text == ROOT_HELP


def test_running_the_module_registers_into_the_imported_module():
    # `python -m tlg.cli` runs cli.py as __main__; tlg.commands registers
    # its commands with, and raises the UsageError of, the module tlg.cli
    moved = _python("-m", "tlg.cli", "iseries", "wci", "--weights", "1,1,1,1",
                    "--degrees", "3", "--order", "5")
    assert (moved.returncode, moved.stdout) == (0, "1,6,90,1680,34650\n")
    misused = _python("-m", "tlg.cli", "lattice", "sig")
    assert misused.returncode == 2
    assert misused.stderr.endswith(
        "tlg lattice sig: error: give exactly one of --name or --input\n")
    own = _python("-m", "tlg.cli", "catalog", "verify", "--order", "2",
                  "--id", "1-17")
    assert (own.returncode, own.stdout) == (0, "PASS 1-17 [paper]\n"
                                                "1/1 passed\n")


def _annotation_names(node):
    # a quoted annotation such as "LaurentPoly" names what it uses only
    # inside its string
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.posonlyargs + node.args.args \
                    + node.args.kwonlyargs:
                if arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports_in_the_package():
    found = [f"{path.name}:{line}: {name}"
             for path in SOURCES
             for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def _names_used(node):
    """How often each name is read under node: as a name, an attribute or
    an imported name."""
    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def _unread_top_level_definitions(readers=()):
    """(file name, definition) for each top-level function or class of the
    package that nothing else in the package or in the reader files reads,
    counting neither its own definition nor a call from inside itself."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = collections.Counter()
    for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in readers)]:
        used.update(_names_used(tree))
    return [(name, node) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and used[node.name] == _names_used(node)[node.name]]


def test_every_private_top_level_definition_is_used():
    # a top-level _name that nothing else in the package reads is dead
    found = [f"{name}:{node.lineno}: {node.name}"
             for name, node in _unread_top_level_definitions()
             if node.name.startswith("_") and not node.name.startswith("__")]
    assert found == []


def _is_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_command" for d in node.decorator_list)


def test_commands_return_their_result_for_main_to_print():
    # main alone reads --output and prints: a command takes no output
    # option and returns its JSON payload and its lines of text (at
    # b326d66 each of the 28 commands printed for itself)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and _is_command(node):
                calls = {n.func.id for n in ast.walk(node)
                         if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Name)}
                if "output" in (a.arg for a in node.args.args) \
                        or calls & {"print", "_echo_json"}:
                    found.append(f"{path.name}:{node.lineno}: {node.name}")
    assert found == []


def test_every_public_top_level_definition_is_read():
    # a public function or class that neither the package nor a test reads
    # is a leftover; a command is reached through the registry of
    # `_command`, not by its name
    tests = sorted(Path(__file__).parent.glob("*.py"))
    found = [f"{name}:{node.lineno}: {node.name}"
             for name, node in _unread_top_level_definitions(tests)
             if not node.name.startswith("_") and not _is_command(node)]
    assert found == []


def _aliases(tree):
    """Top-level assignments whose value is an imported name or an
    attribute of one, such as `factorial = math.factorial`."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                yield node.lineno


def test_no_top_level_aliases_of_imported_names():
    # import the name itself instead: a second name for one object is one
    # more thing to read, and the import is as fast a global lookup
    found = [f"{path.name}:{line}"
             for path in SOURCES
             for line in _aliases(ast.parse(path.read_text()))]
    assert found == []



def test_every_intlinalg_function_is_used_in_the_package():
    # the shared linear algebra keeps no public helper that only tests call
    found = [f"{name}:{node.lineno}: {node.name}"
             for name, node in _unread_top_level_definitions()
             if name == "intlinalg.py" and isinstance(node, ast.FunctionDef)]
    assert found == []
