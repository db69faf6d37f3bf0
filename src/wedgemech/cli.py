"""Command-line entry point.

The four subcommands (``plateau-solve``, ``nonholonomic-check``,
``phase-check``, ``classical-el``) and their help lines come from the
command table of `scenarios`.  A run is driven either by ``--scenario
NAME`` (builtin, fully determined, compared byte-for-byte against a
stored golden report) or by ``--spec PATH`` (a problem spec file, the one
source of a spec run's numbers; the kind table of `scenarios` names the
keys each kind reads).  Only ``plateau-solve`` takes ``--out``, which
receives the solved surface as a grid table; a run that solves no surface
writes no file.

Every report is built in `scenarios`, by ``run_scenario`` or ``run_spec``
through the same bodies.  This module parses the arguments, and one path
writes the report to stdout, compares a scenario's report with its golden
and maps the outcome to an exit code.

Exit codes, never conflated: 0 pass, 1 usage or spec error, 2 numeric
failure (check failed, solver did not converge, or a golden mismatch).
Golden files regenerate only under the explicit ``--golden-regen`` flag.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .constraints import RankDecisionError
from .fields import FieldDomainError
from .formats import SpecError, write_grid
from .plateau import SingularJacobianError
from .scenarios import _COMMANDS, run_scenario, run_spec, scenario_names
from .variational import NodeDomainError

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

COMMANDS = tuple(_COMMANDS)

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here 2 means numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.lru_cache(maxsize=None)  # built once: the command table is fixed
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wedgemech", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                parser_class=_Parser)
    for command, help_line in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--scenario", metavar="NAME",
                       help=f"builtin scenario ({', '.join(scenario_names(command))})")
        p.add_argument("--spec", metavar="PATH", help="problem spec file")
        if command == "plateau-solve":  # the one command whose runs solve a surface
            p.add_argument("--out", metavar="PATH", help="write the solved grid table")
        p.add_argument("--golden-regen", action="store_true", dest="golden_regen",
                       help="rewrite the scenario's stored golden report")
    return parser


def _usage(message: str) -> int:
    print(f"wedgemech: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _option_fault(args):
    """The usage error in the options of a run, or None."""
    if args.scenario:
        names = scenario_names(args.command)
        if args.scenario not in names:
            return (f"unknown scenario {args.scenario!r} for {args.command}; "
                    f"known: {', '.join(names)}")
    elif args.golden_regen:
        return "--golden-regen applies to builtin scenarios only"
    return None


def _finish(args, outcome) -> int:
    """Write any solved surface first, then the report; a scenario's must equal its golden."""
    if outcome.grid is not None and args.out:  # only plateau-solve solves a surface and has --out
        write_grid(args.out, outcome.grid.surface_grid())
    sys.stdout.write(outcome.report)
    if args.scenario:
        golden = os.path.join(_GOLDEN_DIR, f"{args.scenario}.txt")
        if args.golden_regen:
            os.makedirs(_GOLDEN_DIR, exist_ok=True)
            with open(golden, "w", encoding="ascii") as handle:
                handle.write(outcome.report)
            print(f"wedgemech: golden rewritten: {args.scenario}", file=sys.stderr)
            return EXIT_PASS
        if not os.path.exists(golden):
            return _usage(f"no golden report stored for {args.scenario!r}; "
                          f"regenerate explicitly with --golden-regen")
        with open(golden, "r", encoding="ascii") as handle:
            if handle.read() != outcome.report:
                print(f"wedgemech: report deviates from the stored golden for "
                      f"{args.scenario!r}", file=sys.stderr)
                return EXIT_NUMERIC
    return EXIT_PASS if outcome.passed else EXIT_NUMERIC


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if bool(args.scenario) == bool(args.spec):
        return _usage("exactly one of --scenario or --spec is required")
    fault = _option_fault(args)
    if fault:
        return _usage(fault)
    try:
        if args.scenario:
            return _finish(args, run_scenario(args.scenario))
        return _finish(args, run_spec(args.command, args.spec))
    except SpecError as err:
        print(f"wedgemech: spec error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        if args.spec and err.filename == args.spec:
            return _usage(f"cannot read spec: {err}")
        print(f"wedgemech: i/o error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularJacobianError, RankDecisionError, NodeDomainError, FieldDomainError) as err:
        print(f"wedgemech: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
