"""Batch command-line interface.

Machine-first output: results go to stdout as JSON lines (deterministic for a
given seed), a run manifest with the timestamp goes to stderr.  ``--table``
switches stdout to human-readable tables.

Exit codes: 0 success/certified, 2 usage error, 3 inconclusive statistics,
4 exact-value regression mismatch (or a certification in the unexpected
direction).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import DEFAULT_CHUNK, __version__
from .exactnum import PiPolynomial
from .moments import (
    BODY_KINDS,
    FIXED_KINDS,
    Q_DECREASING_FROM,
    SUPPORT,
    MomentQuery,
    check_closed_form_size,
    exact_moment,
    exact_ratio_bound,
    plane_counterexample_report,
    q_ratios,
    table1_rows,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_MISMATCH = 4

# the largest --digits: a decimal of that many digits stays clear of the
# interpreter's limit on integer-to-string conversion (4300 digits)
MAX_DIGITS = 4000

# Frozen regression values for the k = 3..10 triangle table (midpoint moment,
# free moment, ratio).  cmd_table1 exits nonzero if the closed forms drift.
TABLE1_EXPECTED = {
    3: ("1/375", "31/9000", "24/31"),
    4: ("13/21600", "1/900", "13/24"),
    5: ("151/987840", "1063/2469600", "755/2126"),
    6: ("1/23520", "403/2116800", "90/403"),
    7: ("83/6531840", "211/2268000", "2075/15192"),
    8: ("73/18144000", "13/264600", "511/6240"),
    9: ("1433/1073318400", "2593/93915360", "10031/207440"),
    10: ("647/1405071360", "697/42688800", "22645/802944"),
}

# Named counterexamples: scenario -> (lhs, rhs) queries, certified as lhs > rhs.
# A side with a closed form enters exactly; the other is estimated.
SCENARIOS = {
    # the free moment in the 3-half-ball exceeds the exact base-center moment
    "halfball-d3": (MomentQuery(3, 1, "halfball"), MomentQuery(3, 1, "halfball", "origin")),
    # the exact free moment in the tetrahedron exceeds the facet-centroid moment
    "tetra-d3": (MomentQuery(3, 1, "tetrahedron"),
                 MomentQuery(3, 1, "tetrahedron", "facet_centroid")),
    # the d >= 4 regime, where the first moment already fails monotonicity
    "halfball-d4-k1": (MomentQuery(4, 1, "halfball"), MomentQuery(4, 1, "halfball", "origin")),
}


def _encoder():
    """json.dumps(obj, sort_keys=True) as one function, with its C encoder built
    once: ``JSONEncoder.encode`` builds a new one, a markers dict and a closure
    on every call.  Markers are None, so there is no circular-reference check:
    every record is a tree built here, and a kept markers dict would be shared
    by every thread that calls :func:`main`."""
    make = json.encoder.c_make_encoder
    if make is None:
        return json.JSONEncoder(sort_keys=True).encode
    encoder = make(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                   None, ": ", ", ", True, False, True)
    return lambda o: "".join(encoder(o, 0))


_encode = _encoder()


def _emit(record: dict, table: bool, renderer) -> None:
    if table:
        print(renderer(record))
    else:
        print(_encode(record))


def _manifest(ns: argparse.Namespace) -> None:
    # a type test: isinstance on Fraction goes through the numbers ABCs
    parameters = {key: str(value) if type(value) is Fraction else value
                  for key, value in vars(ns).items() if key != "command"}
    manifest = {
        "manifest": {
            "command": ns.command,
            "parameters": parameters,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
        }
    }
    print(_encode(manifest), file=sys.stderr)


def _fraction(text: str) -> Fraction:
    # argparse reports a ValueError from ``type`` but lets a ZeroDivisionError through
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _digits(text: str) -> int:
    digits = int(text)
    if digits > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"--digits must be at most {MAX_DIGITS}")
    return digits


class _CommandAction(argparse._SubParsersAction):
    """The command positional of the top-level parser: it records the command's
    name and the tokens after it, and leaves them to the command's own parser."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.command, namespace.after_command = values[0], values[1:]


class _Table(NamedTuple):
    """What settles a clean command line of one command without argparse."""

    options: dict[str, argparse.Action]  # each exact option string -> its action
    positionals: tuple[argparse.Action, ...]
    defaults: dict[str, object]  # dest -> the default of its first action, as argparse keeps it
    required: frozenset[argparse.Action]


def _table(actions: list[argparse.Action]) -> _Table:
    defaults: dict[str, object] = {}
    for action in actions:
        defaults.setdefault(action.dest, action.default)
    return _Table({flag: action for action in actions for flag in action.option_strings},
                  tuple(action for action in actions if not action.option_strings),
                  defaults, frozenset(action for action in actions if action.required))


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                             dict[str, _Table]]:
    """The top-level parser, each command's parser, and per command the table
    that settles its clean command lines, built from the actions
    ``add_argument`` returns (the help flag is left to argparse)."""
    parser = argparse.ArgumentParser(
        prog="sylvester",
        description="Exact and Monte Carlo moments of random simplex volumes in convex bodies.",
    )
    parser.add_argument("--config", help="key=value file, read as the command's own flags "
                                         "placed before the explicit ones")
    sub = parser.add_subparsers(dest="command", required=True, action=_CommandAction)
    actions: dict[str, list[argparse.Action]] = {name: [] for name in _COMMANDS}

    def arg(p, *names, **kw):
        name = p.prog.split()[-1]  # "sylvester exact" -> "exact"
        actions[name].append(p.add_argument(*names, **kw))

    def add_output_flags(p, digits=False):
        if digits:
            arg(p, "--digits", type=_digits, default=12, help="significant digits for decimals")
        arg(p, "--table", action="store_true", help="human-readable table output")
        arg(p, "--json", dest="table", action="store_false", help="JSON-lines output (default)")

    def add_query_flags(p):
        arg(p, "--body", choices=BODY_KINDS)
        arg(p, "--fixed", default="none", choices=FIXED_KINDS)
        arg(p, "--d", type=int)
        arg(p, "--k", type=int, default=1)
        arg(p, "--l", type=_fraction, default=None,
            help="interval length (fraction or decimal), for --body interval only")

    p = sub.add_parser("table1", help="triangle moment table for k=3..10, checked against frozen values")
    add_output_flags(p)

    p = sub.add_parser("exact", help="exact closed-form moment for a query")
    add_query_flags(p)
    add_output_flags(p, digits=True)

    p = sub.add_parser("mc", help="Monte Carlo estimate of a moment")
    add_query_flags(p)
    arg(p, "--n", type=int, default=1_000_000)
    arg(p, "--seed", type=int, default=0)
    arg(p, "--chunk", type=int, default=DEFAULT_CHUNK)
    arg(p, "--confidence", type=float, default=0.99)
    add_output_flags(p)

    p = sub.add_parser("counterexample", help="certify a named non-monotonicity scenario")
    arg(p, "scenario", choices=SCENARIOS)
    arg(p, "--n", type=int, default=10_000_000)
    arg(p, "--seed", type=int, default=0)
    arg(p, "--chunk", type=int, default=DEFAULT_CHUNK,
        help="a certification's chunks ramp up to a sixteenth of it")
    arg(p, "--confidence", type=float, default=0.99)
    add_output_flags(p)

    p = sub.add_parser("qscan", help="scan the q(d,k) bound series")
    arg(p, "--d", type=int, choices=[2, 3], default=2)
    arg(p, "--k-max", type=int, default=20)
    add_output_flags(p, digits=True)

    return parser, sub.choices, {name: _table(a) for name, a in actions.items()}


def _config_flags(path: str, command: str) -> list[str]:
    """The ``--key=value`` flags a config file gives ``command``: a key only
    another command takes is skipped, a key no command takes is an error."""
    flags, unknown = [], set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line without '=': {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip().strip('"')
                if key in CONFIG_KEYS[command]:
                    flags.append(f"{CONFIG_KEYS[command][key]}={value}")
                elif not any(key in keys for keys in CONFIG_KEYS.values()):
                    unknown.add(key)
    except (OSError, ValueError) as exc:
        PARSER.error(f"cannot read config file: {exc}")
    if unknown:
        PARSER.error(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return flags


def _settle(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a clean command line, from the command's table in one
    pass over its tokens, or None where argparse must decide.

    Clean means: the first token names a command, and every later token is an
    exact option string of it followed by its value, or written
    ``--flag=value``, or a flag that takes no value, or the command's
    positional; no value starts with ``-``; every value passes its action's
    ``type`` and ``choices``; and every required argument is present.  The
    namespace is the one argparse gives the same tokens."""
    tokens = iter(argv)
    command = next(tokens, None)
    table = TABLES.get(command)
    if table is None:
        return None
    values, seen, positionals = dict(table.defaults), set(), iter(table.positionals)
    for token in tokens:
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
            action = table.options.get(flag)
            if action is None:
                return None
            if action.nargs == 0:  # store_true or store_false
                if eq:
                    return None
                values[action.dest] = action.const
                seen.add(action)
                continue
            if not eq:
                value = next(tokens, "-")  # a missing value reads as a flag
            if value.startswith("-"):
                return None
        else:
            action, value = next(positionals, None), token
            if action is None:
                return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if not table.required <= seen:
        return None
    return argparse.Namespace(config=None, command=command, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed, each token once.

    A clean command line (see :func:`_settle`) is settled by its command's
    table and reaches no argparse parser.  Everything else falls through to
    :func:`_argparse`, so help, error messages and exit codes stay argparse's
    own: ``-h``/``--help``, ``--config``, abbreviated flags, values that start
    with ``-``, bad or missing values, and unknown tokens."""
    return _settle(argv) or _argparse(argv)


def _argparse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by argparse, each token once.  ``PARSER`` takes the
    tokens before the command token and the command's name; the command's own
    parser takes the --config file's flags and then the tokens after the
    command, so explicit flags, which come later, win."""
    i = 0  # the command token, when only --config options and their values precede it
    while i < len(argv) and argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    ns, extras = PARSER.parse_known_args(argv[:i + 1])
    # the scan takes the token after an unknown option for its value, so PARSER
    # may find the command before i: the tokens it saw after it go on too
    after = [*vars(ns).pop("after_command"), *argv[i + 1:]]
    flags = [] if ns.config is None else _config_flags(ns.config, ns.command)
    ns, unknown = COMMAND_PARSERS[ns.command].parse_known_args([*flags, *after], ns)
    if extras or unknown:
        PARSER.error(f"unrecognized arguments: {' '.join([*extras, *unknown])}")
    return ns


def _query(ns) -> MomentQuery:
    """The query the --body/--fixed/--d/--k/--l flags select; ValueError if unsupported."""
    if ns.body is None:
        raise ValueError("--body is required")
    d = SUPPORT[ns.body, ns.fixed].d if ns.d is None else ns.d
    if d is None:
        raise ValueError(f"--d is required for body {ns.body}")
    return MomentQuery(d=d, k=ns.k, body_kind=ns.body, fixed_kind=ns.fixed, l=ns.l)


def cmd_table1(ns) -> int:
    mismatches = []
    for row in table1_rows():
        expected = TABLE1_EXPECTED[row.k]
        got = (str(row.midpoint_moment), str(row.free_moment), str(row.ratio))
        record = row.to_json_dict()
        record["matches_expected"] = got == expected
        if got != expected:
            record["expected"] = {
                "midpoint_moment": expected[0],
                "free_moment": expected[1],
                "ratio": expected[2],
            }
            mismatches.append(record)
        _emit(record, ns.table, _render_table1_row)
    if mismatches:
        print(f"table1: {len(mismatches)} row(s) differ from frozen values", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _render_table1_row(r: dict) -> str:
    return (f"k={r['k']:>2}  midpoint={r['midpoint_moment']:>18}  "
            f"free={r['free_moment']:>18}  ratio={r['ratio']:>15} "
            f"(~{r['ratio_decimal']})")


def cmd_exact(ns) -> int:
    query = _query(ns)
    value = exact_moment(query)
    decimal = value.to_decimal(ns.digits)
    try:
        exact, exact_str = value.to_json_dict(), str(value)
    except ValueError as exc:  # the interpreter's limit on integer-to-string conversion
        raise ValueError(f"the exact value has a coefficient of more than "
                         f"{sys.get_int_max_str_digits()} digits, too long to print") from exc
    record = {
        "query": query.to_json_dict(),
        "exact": exact,
        "exact_str": exact_str,
        "decimal": decimal,
    }
    _emit(record, ns.table,
          lambda r: f"{r['query']}  =  {r['exact_str']}  ~ {r['decimal']}")
    return EXIT_OK


def cmd_mc(ns) -> int:
    # imported here: montecarlo loads numpy, which only mc and counterexample need
    from .montecarlo import estimate_moment, make_config

    body, fixed = _query(ns).sampler()
    config = make_config(k=ns.k, n_samples=ns.n, seed=ns.seed,
                         chunk_size=ns.chunk, confidence=ns.confidence)
    estimate = estimate_moment(body, fixed, config)
    record = estimate.to_json_dict()
    _emit(record, ns.table,
          lambda r: (f"mean={r['mean']:.9g}  se={r['std_error']:.3g}  "
                     f"ci=[{r['ci_low']:.9g}, {r['ci_high']:.9g}]  n={r['n']}"))
    return EXIT_OK


@cache
def _side(query: MomentQuery):
    """A certification side: the exact value where a closed form exists, else the
    (body, fixed vertex, k) to estimate, followed by the exact E V^(2k), and
    then E V^(4k), as far as they have closed forms (the side then samples a
    bounded control variate, in its (-1, 0) or its quartic row).  A constant
    of the query, so each is built once per process."""
    support = query.support
    if support.exact_at(query.d, query.k):
        return exact_moment(query)
    moments = []
    for order in (2 * query.k, 4 * query.k):
        if not support.exact_at(query.d, order):
            break
        moments.append(exact_moment(replace(query, k=order)))
    return (*query.sampler(), query.k, *moments)


def cmd_counterexample(ns) -> int:
    from .montecarlo import INCONCLUSIVE, LHS_GREATER, certify_counterexample, make_config

    lhs, rhs = SCENARIOS[ns.scenario]
    config = make_config(k=1, n_samples=ns.n, seed=ns.seed,
                         chunk_size=ns.chunk, confidence=ns.confidence)
    verdict = certify_counterexample(_side(lhs), _side(rhs), config)
    print(_encode({"certification": verdict.trace_dict()}), file=sys.stderr)
    certified = verdict.relation == LHS_GREATER
    record = {
        "scenario": ns.scenario,
        "expected_relation": LHS_GREATER,
        "certified": certified,
        "verdict": verdict.to_json_dict(),
    }
    _emit(record, ns.table,
          lambda r: (f"{r['scenario']}: relation={r['verdict']['relation']} "
                     f"(expected {r['expected_relation']}), "
                     f"confidence={r['verdict']['confidence']}"))
    if certified:
        return EXIT_OK
    if verdict.relation == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_MISMATCH


def cmd_qscan(ns) -> int:
    if ns.k_max < 2:
        raise ValueError("--k-max must be >= 2")
    check_closed_form_size(ns.d, ns.k_max)
    qs = q_ratios(ns.d, ns.k_max)  # qs[k - 1] = q(d, k)
    rows = [{"k": k, "q": str(q),
             "q_decimal": PiPolynomial.from_rational(q).to_decimal(ns.digits),
             "below_one": q < 1}
            for k, q in enumerate(qs, 1)]
    first_below = next((r["k"] for r in rows if r["below_one"]), None)
    threshold = Q_DECREASING_FROM[ns.d]
    monotone = all(qs[k] < qs[k - 1] for k in range(threshold, ns.k_max))
    for row in rows:
        _emit(row, ns.table,
              lambda r: f"k={r['k']:>3}  q={r['q_decimal']:>16}  "
                        f"{'< 1' if r['below_one'] else '>= 1'}")
    summary = {
        "d": ns.d,
        "first_k_below_one": first_below,
        "monotone_decreasing_from": threshold,
        "monotone_verified": monotone,
        "plane_report": plane_counterexample_report(ns.k_max).to_json_dict()
        if ns.d == 2 else None,
    }
    if ns.d == 3:
        bound_k2 = exact_ratio_bound(3, 2)
        summary["ratio_bound_k2"] = bound_k2.to_json_dict()
        summary["ratio_bound_k2_is_one"] = bound_k2 == 1
        summary["ratio_bound_k3_decimal"] = exact_ratio_bound(3, 3).to_decimal(6)
    _emit(summary, ns.table, lambda r: f"summary: {_encode(r)}")
    return EXIT_OK


_COMMANDS = {
    "table1": cmd_table1,
    "exact": cmd_exact,
    "mc": cmd_mc,
    "counterexample": cmd_counterexample,
    "qscan": cmd_qscan,
}
# built once: parsing leaves no state in a parser, so every call of main shares it
PARSER, COMMAND_PARSERS, TABLES = _build_parser()
# per command, the config keys it takes (``k_max`` -> ``--k-max``): its flags that take a value
CONFIG_KEYS = {command: {flag.lstrip("-").replace("-", "_"): flag
                         for flag, action in table.options.items() if action.nargs != 0}
               for command, table in TABLES.items()}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _manifest(ns)
    try:
        return _COMMANDS[ns.command](ns)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChildProcessError as exc:  # an mc worker process died
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
