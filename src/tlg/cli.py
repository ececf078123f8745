"""Command line front end.

Subcommands mirror the library: series (phi, iseries, verify), builders
(build wci|grass|delpezzo|binomial, minkowski check), mutation, polytope
queries, lattice invariants, operator fitting (pf fit), Hodge-number
bookkeeping and the bundled catalog. Output defaults to a compact text
form; --output json switches to JSON with rational numbers rendered as
strings, never floats. Identical inputs and flags produce byte-identical
JSON across runs and across --jobs settings.

Exit codes: 0 success, 1 computation failure (with a structured JSON
error on stderr) or a failed verification, 2 usage error, 130 interrupted.

Each command is a function registered with ``_command`` under its name
("build wci" names a subcommand of a group); argparse parses the options.
A command returns its result, a JSON payload and the lines of its text
form, and ``main`` alone prints one of the two, as --output asks, the one
option every command takes. This module defines only the catalog group,
which ``catalog verify`` needs; every other command is in
``tlg.commands``. ``main`` imports that module, and builds the parser of
every command, only when the first argument does not name the catalog
group, so a ``tlg catalog verify`` process neither compiles the other
commands nor builds their parsers. Each parser is built once per process.
``import tlg.cli`` loads only the modules ``catalog verify`` runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from importlib import import_module
from typing import Optional, Sequence

from . import catalog as _catalog


class UsageError(Exception):
    """Options that parse but do not make a valid request; exit code 2."""


# -- shared plumbing --------------------------------------------------------

def _echo_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _opt(*flags, **kwargs):
    """One option: the arguments of ``ArgumentParser.add_argument``."""
    return flags, kwargs


_OUTPUT = _opt("--output", choices=("json", "text"), default="text",
               help="Output format (default: %(default)s).")

_GROUPS = {
    "iseries": "Regularized I-series from geometric input.",
    "build": "Construct Laurent polynomial models.",
    "minkowski": "Minkowski decompositions of Newton polytope facets.",
    "polytope": "Lattice polytope queries.",
    "lattice": "Even lattice invariants.",
    "pf": "Differential operators annihilating period series.",
    "hodge": "Hodge number bookkeeping for mirror models.",
    "catalog": "Bundled model catalog.",
}
_COMMANDS = []


def _command(name: str, *options):
    """Register the decorated function as the command ``name`` with the
    given options; it is called with one keyword argument per option and
    returns (payload, lines), its result as JSON and as lines of text, or
    (payload, lines, exit code) where the exit code is not always 0."""
    def register(fn):
        _COMMANDS.append((name, options, fn))
        return fn
    return register


# -- the catalog group ------------------------------------------------------

@_command("catalog verify",
          _opt("--order", type=int, default=4, help="(default: %(default)s)"),
          _opt("--jobs", type=int, default=1,
               help="Worker processes; the report is identical either way "
                    "(default: %(default)s)."),
          _opt("--id", dest="ids", metavar="ID", action="append",
               help="Restrict to these entry ids (repeatable)."))
def catalog_verify_cmd(order, jobs, ids):
    """Re-derive and check every catalog entry."""
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    entries = _catalog.load()
    if ids:
        known = {e.id for e in entries}
        missing = [i for i in ids if i not in known]
        if missing:
            raise UsageError(
                "unknown catalog ids: " + ", ".join(sorted(missing)))
        entries = [e for e in entries if e.id in set(ids)]
    summary = _catalog.verify_all(entries, order, jobs=jobs)

    def lines():
        for report in summary.reports:
            status = "PASS" if report.passed else "FAIL"
            line = f"{status} {report.id} [{report.anchored}]"
            if report.messages:
                line += " " + "; ".join(report.messages)
            yield line
        passed = sum(1 for r in summary.reports if r.passed)
        yield f"{passed}/{len(summary.reports)} passed"
    return summary.to_json_dict(), lines(), 0 if summary.all_passed else 1


@_command("catalog list")
def catalog_list_cmd():
    """Show catalog entries and their anchoring."""
    entries = sorted(_catalog.load(), key=lambda e: e.id)
    return ([{"id": e.id,
              "description": e.description,
              "anchored": e.anchored,
              "degree": e.degree,
              "index": e.index,
              "rho": e.rho,
              "minkowski": e.minkowski_flag,
              "variables": list(e.laurent.variables)} for e in entries],
            [f"{e.id}\t[{e.anchored}]\t{e.description}" for e in entries])


def _own(command) -> bool:
    """Whether a registered command is defined in this module."""
    return command[2].__module__ == __name__


@cache
def _parser(every: bool) -> argparse.ArgumentParser:
    """The parser of this module's commands or, when every, of all commands:
    ``tlg.commands`` is imported and registers its commands, which come
    first, as in --help. Each leaf parser takes its command's options and
    then --output, and stores its command function and itself as the
    defaults ``run`` and ``parser``."""
    if every:
        import_module(".commands", __package__)
    root = argparse.ArgumentParser(
        prog="tlg", allow_abbrev=False, description="Exact arithmetic tools "
        "for Laurent polynomial mirror models.")
    top = root.add_subparsers(metavar="COMMAND", required=True)
    groups = {}
    for name, options, fn in sorted(
            (c for c in _COMMANDS if every or _own(c)), key=_own):
        *group, leaf = name.split()
        subs = top
        if group:
            if group[0] not in groups:
                g = top.add_parser(group[0], help=_GROUPS[group[0]],
                                   description=_GROUPS[group[0]],
                                   allow_abbrev=False)
                groups[group[0]] = g.add_subparsers(metavar="COMMAND",
                                                    required=True)
            subs = groups[group[0]]
        doc = fn.__doc__
        p = subs.add_parser(leaf, help=doc.splitlines()[0], description=doc,
                            allow_abbrev=False)
        for flags, kwargs in (*options, _OUTPUT):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=fn, parser=p)
    return root


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point with the documented exit-code contract."""
    if argv is None:
        argv = sys.argv[1:]
    own = {c[0].split()[0] for c in _COMMANDS if _own(c)}
    try:
        args = vars(_parser(not argv or argv[0] not in own).parse_args(argv))
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return exc.code
    run, parser, output = map(args.pop, ("run", "parser", "output"))
    try:
        payload, lines, *code = run(**args)
        if output == "json":
            _echo_json(payload)
        else:
            for line in lines:
                print(line)
        return code[0] if code else 0
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    # run as ``python -m tlg.cli`` this file is the module __main__, while
    # tlg.commands registers its commands with the module tlg.cli and raises
    # its UsageError: run the main of that module
    from .cli import main
    raise SystemExit(main())
