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
from datetime import datetime, timezone
from fractions import Fraction

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
    q_ratio,
    table1_rows,
)

EXIT_OK = 0
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


def _emit(record: dict, table: bool = False, renderer=None) -> None:
    if table and renderer is not None:
        print(renderer(record))
    else:
        print(json.dumps(record, sort_keys=True))


def _manifest(ns: argparse.Namespace) -> None:
    parameters = {key: str(value) if isinstance(value, Fraction) else value
                  for key, value in vars(ns).items() if key != "command"}
    manifest = {
        "manifest": {
            "command": ns.command,
            "parameters": parameters,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
        }
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


class _UsageError(Exception):
    pass


def _digits(text: str) -> int:
    digits = int(text)
    if digits > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"--digits must be at most {MAX_DIGITS}")
    return digits


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, str]]]:
    """The parser, and per command the config keys it takes (``k_max`` -> ``--k-max``)."""
    parser = argparse.ArgumentParser(
        prog="sylvester",
        description="Exact and Monte Carlo moments of random simplex volumes in convex bodies.",
    )
    parser.add_argument("--config", help="key=value file, read as the command's own flags "
                                         "placed before the explicit ones")
    sub = parser.add_subparsers(dest="command", required=True)
    keys: dict[str, dict[str, str]] = {name: {} for name in _COMMANDS}

    def opt(p, flag, **kw):
        name = p.prog.split()[-1]  # "sylvester exact" -> "exact"
        keys[name][flag.lstrip("-").replace("-", "_")] = flag
        p.add_argument(flag, **kw)

    def add_output_flags(p, digits=False):
        if digits:
            opt(p, "--digits", type=_digits, default=12, help="significant digits for decimals")
        p.add_argument("--table", action="store_true", help="human-readable table output")
        p.add_argument("--json", dest="table", action="store_false",
                       help="JSON-lines output (default)")

    def add_query_flags(p):
        opt(p, "--body", choices=BODY_KINDS)
        opt(p, "--fixed", default="none", choices=FIXED_KINDS)
        opt(p, "--d", type=int)
        opt(p, "--k", type=int, default=1)
        opt(p, "--l", type=Fraction, default=None,
            help="interval length (fraction or decimal), for --body interval only")

    p = sub.add_parser("table1", help="triangle moment table for k=3..10, checked against frozen values")
    add_output_flags(p)

    p = sub.add_parser("exact", help="exact closed-form moment for a query")
    add_query_flags(p)
    add_output_flags(p, digits=True)

    p = sub.add_parser("mc", help="Monte Carlo estimate of a moment")
    add_query_flags(p)
    opt(p, "--n", type=int, default=1_000_000)
    opt(p, "--seed", type=int, default=0)
    opt(p, "--chunk", type=int, default=DEFAULT_CHUNK)
    opt(p, "--confidence", type=float, default=0.99)
    add_output_flags(p)

    p = sub.add_parser("counterexample", help="certify a named non-monotonicity scenario")
    p.add_argument("scenario", choices=SCENARIOS)
    opt(p, "--n", type=int, default=10_000_000)
    opt(p, "--seed", type=int, default=0)
    opt(p, "--chunk", type=int, default=DEFAULT_CHUNK)
    opt(p, "--confidence", type=float, default=0.99)
    add_output_flags(p)

    p = sub.add_parser("qscan", help="scan the q(d,k) bound series")
    opt(p, "--d", type=int, choices=[2, 3], default=2)
    opt(p, "--k-max", type=int, default=20)
    add_output_flags(p, digits=True)

    return parser, keys


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


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed, with the --config file's flags placed right after the
    command, so explicit flags, which come later, win."""
    ns = PARSER.parse_args(argv)
    if ns.config is None:
        return ns
    i = 0  # the command token: before it stand only --config options and their values
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return PARSER.parse_args([*argv[:i + 1], *_config_flags(ns.config, ns.command), *argv[i + 1:]])


def _query(ns) -> MomentQuery:
    """The query the --body/--fixed/--d/--k/--l flags select; ValueError if unsupported."""
    if ns.body is None:
        raise _UsageError("--body is required")
    d = SUPPORT[ns.body, ns.fixed].d if ns.d is None else ns.d
    if d is None:
        raise _UsageError(f"--d is required for body {ns.body}")
    return MomentQuery(d=d, k=ns.k, body_kind=ns.body, fixed_kind=ns.fixed, l=ns.l)


def _sampler(query: MomentQuery) -> tuple:
    """(body, fixed vertex) for estimating ``query`` by Monte Carlo."""
    return query.support.body(query.d, query.l), query.support.fixed(query.d)


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
    try:
        query = _query(ns)
        value = exact_moment(query)
        decimal = value.to_decimal(ns.digits)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        exact, exact_str = value.to_json_dict(), str(value)
    except ValueError as exc:  # the interpreter's limit on integer-to-string conversion
        raise _UsageError(f"the exact value has a coefficient of more than "
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

    try:
        body, fixed = _sampler(_query(ns))
        config = make_config(k=ns.k, n_samples=ns.n, seed=ns.seed,
                             chunk_size=ns.chunk, confidence=ns.confidence)
        estimate = estimate_moment(body, fixed, config)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    record = estimate.to_json_dict()
    _emit(record, ns.table,
          lambda r: (f"mean={r['mean']:.9g}  se={r['std_error']:.3g}  "
                     f"ci=[{r['ci_low']:.9g}, {r['ci_high']:.9g}]  n={r['n']}"))
    return EXIT_OK


def _side(query: MomentQuery):
    """A certification side: the exact value where a closed form exists, else the
    (body, fixed vertex, k) to estimate."""
    if query.support.exact_at(query.k):
        return exact_moment(query)
    return (*_sampler(query), query.k)


def cmd_counterexample(ns) -> int:
    from .montecarlo import INCONCLUSIVE, LHS_GREATER, certify_counterexample, make_config

    lhs, rhs = SCENARIOS[ns.scenario]
    try:
        config = make_config(k=1, n_samples=ns.n, seed=ns.seed,
                             chunk_size=ns.chunk, confidence=ns.confidence)
        verdict = certify_counterexample(_side(lhs), _side(rhs), config)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    print(json.dumps({"certification": verdict.trace_dict()}, sort_keys=True), file=sys.stderr)
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
        raise _UsageError("--k-max must be >= 2")
    try:
        check_closed_form_size(ns.d, ns.k_max)
        qs = [q_ratio(ns.d, k) for k in range(1, ns.k_max + 1)]  # qs[k - 1] = q(d, k)
        rows = [{"k": k, "q": str(q),
                 "q_decimal": PiPolynomial.from_rational(q).to_decimal(ns.digits),
                 "below_one": q < 1}
                for k, q in enumerate(qs, 1)]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
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
    _emit(summary, ns.table, lambda r: f"summary: {json.dumps(r, sort_keys=True)}")
    return EXIT_OK


_COMMANDS = {
    "table1": cmd_table1,
    "exact": cmd_exact,
    "mc": cmd_mc,
    "counterexample": cmd_counterexample,
    "qscan": cmd_qscan,
}
# built once: parsing leaves no state in a parser, so every call of main shares it
PARSER, CONFIG_KEYS = _build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _manifest(ns)
    try:
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
