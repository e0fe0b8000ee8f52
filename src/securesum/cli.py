"""Command-line front end: simulate, leakage, sweep, region."""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import cache
from itertools import chain
from random import Random
from statistics import fmean

from .analysis import (
    affine_joint,
    check_rate_region,
    leakage_report,
    monte_carlo_error,
    rate_report,
)
from .codes import build_code, exact_error_probability, m_for_rate
from .errors import CapacityError, ConfigurationError, ContractViolation
from .protocol import PROTOCOL_IDS, PROTOCOLS, nominal_rates
from .source import DsbsParams, binary_entropy

CSV_VERSION_COMMENT = "# securesum-csv v2"


@dataclass
class ReportRow:
    """One CSV row; the fields are the columns, in order, and unset fields serialize empty."""

    protocol: str
    n: int
    m: int
    p: float
    seed: int
    r12: float | None = None
    r13: float | None = None
    r23: float | None = None
    rho: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    eps3: float | None = None
    eps4: float | None = None
    p_err_exact: float | None = None
    p_err_mc: float | None = None
    mc_ci: float | None = None
    in_region: bool | None = None

    def csv_line(self) -> str:
        def fmt(value) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return repr(value)
            return str(value)

        return ",".join(fmt(getattr(self, col)) for col in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))
# The per-instance columns a mean row averages; a point's rows share the others.
_MEAN_COLUMNS = ("eps1", "eps2", "eps3", "eps4", "p_err_exact", "p_err_mc", "mc_ci")

# The modes each instance command accepts, its default first; leakage takes no --mode.
_MODES = {
    "simulate": ("both", "exact", "monte-carlo"),
    "leakage": ("leakage",),
    "sweep": ("exact", "monte-carlo", "both", "leakage"),
}
_DEFAULT_TRIALS = 100000


def derive_run_seed(master: int, protocol_id: str, n: int, m: int, p: float, index: int) -> int:
    """Stable per-instance seed from sha256 (builtin hash() is salted); repr(p) keeps every digit."""
    text = f"{master}|{protocol_id}|{n}|{m}|{p!r}|{index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number", bool: "true or false"}


def _cast(key: str, value, kind):
    """One value of option --key as `kind` (str, int, float or bool).

    Flags arrive as strings, `--config` values as JSON values. A JSON boolean
    is not a number, an integer option takes only integral values, a float
    must be finite, and a bool option takes only a JSON boolean.
    """
    if kind in (str, bool):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool):
        try:
            if kind is float:
                number = float(value)
                if math.isfinite(number):
                    return number + 0.0  # IEEE -0.0 + 0.0 is 0.0: -0 names the value 0
            elif not isinstance(value, float) or value.is_integer():
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigurationError(f"bad value for --{key}: {value!r} (need {_KIND_NAMES[kind]})")


def _req(raw: dict, key: str, kind):
    value = raw.get(key)
    if value is None:
        raise ConfigurationError(f"missing required option --{key}")
    return _cast(key, value, kind)


def _opt(raw: dict, key: str, kind, default):
    """An optional value; only an absent or null one takes the default."""
    return default if raw.get(key) is None else _req(raw, key, kind)


def _values(raw: dict, key: str, kind, sweep: bool = True) -> list:
    """Required option --key as a list: for a sweep a non-empty comma-separated
    string or JSON list, for another command its one value."""
    value = raw.get(key)
    if value is None or not sweep:
        return [_req(raw, key, kind)]
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    if not value:
        raise ConfigurationError(f"--{key} list is empty")
    return [_cast(key, v, kind) for v in value]


def _check(key: str, values: list, ok, need: str) -> list:
    """`values` of option --key, each of which must pass ok(); `need` says what ok() asks."""
    for value in values:
        if not ok(value):
            raise ConfigurationError(f"--{key} must {need}, got {value!r}")
    return values


def _flip_rates(raw: dict, sweep: bool) -> list[float]:
    return _check("p", _values(raw, "p", float, sweep), lambda p: 0.0 <= p <= 0.5, "lie in [0, 1/2]")


def _count(raw: dict, key: str, default: int) -> int:
    (value,) = _check(key, [_opt(raw, key, int, default)], lambda v: v >= 1, "be positive")
    return value


def _merge_config(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Explicit flags win; a JSON --config supplies anything left unset."""
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ConfigurationError(f"cannot read config file {args.config!r}: {e.strerror or e}")
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigurationError(f"config file {args.config!r} is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config file must hold a JSON object, got {type(doc).__name__}")
        for key, value in doc.items():
            if key not in keys:
                raise ConfigurationError(f"config key {key!r} is not an option of this command;"
                                         f" it takes {', '.join(keys)}")
            raw[key] = value
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return raw


def _quad(raw: dict) -> tuple[float, float, float, float]:
    parts = _values(raw, "quad", float)
    if len(parts) != 4:
        raise ConfigurationError(f"--quad needs four comma-separated rates, got {len(parts)}")
    if any(v < 0.0 for v in parts):
        raise ConfigurationError("rates cannot be negative")
    return tuple(parts)  # type: ignore[return-value]


def _instance_row(protocol: str, n: int, m: int, p: float, master_seed: int,
                  index: int, mode: str, trials: int) -> ReportRow:
    seed = derive_run_seed(master_seed, protocol, n, m, p, index)
    rng = Random(seed)
    code = build_code(n, m, seed=rng.getrandbits(63)) if PROTOCOLS[protocol].coded else None
    row = ReportRow(protocol=protocol, n=n, m=m, p=p, seed=seed)
    if mode == "leakage":
        joint = affine_joint(protocol, code, DsbsParams(p, n))
        leak = leakage_report(joint)
        rates = rate_report(joint)
        row.eps1, row.eps2, row.eps3, row.eps4 = leak.eps1, leak.eps2, leak.eps3, leak.eps4
        row.r13, row.r23, row.r12, row.rho = rates.quadruple()
    else:
        row.r13, row.r23, row.r12, row.rho = nominal_rates(protocol, n, m)
    if mode != "monte-carlo":
        row.p_err_exact = exact_error_probability(code, p) if code else 0.0
    if mode in ("monte-carlo", "both"):
        mc = monte_carlo_error(protocol, code, DsbsParams(p, n), trials, rng)
        row.p_err_mc = mc.p_err
        row.mc_ci = mc.half_width_3sigma
    row.in_region = check_rate_region((row.r13, row.r23, row.r12, row.rho), p)
    return row


def _write(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigurationError(f"cannot write --out file {out!r}: {e.strerror or e}")


def _emit_rows(rows: list[ReportRow], out: str | None) -> None:
    lines = [CSV_VERSION_COMMENT, ",".join(CSV_COLUMNS)] + [r.csv_line() for r in rows]
    _write("\n".join(lines) + "\n", out)


def _aggregate_rows(groups: list[list[ReportRow]], master_seed: int) -> list[ReportRow]:
    """One mean row per point: its first row under the master seed, with each
    per-instance column averaged, or unset when any row leaves it unset."""
    out = []
    for group in groups:
        columns = {name: [getattr(row, name) for row in group] for name in _MEAN_COLUMNS}
        means = {name: None if None in values else fmean(values) for name, values in columns.items()}
        out.append(replace(group[0], seed=master_seed, **means))
    return out


def _instance_rows(raw: dict, command: str) -> list[ReportRow]:
    """The rows of every distinct (protocol, n, m, p) point and code seed, in configuration order.

    A sweep reads each point option as a comma list. simulate and leakage read
    one value per option and have no --seeds or --aggregate, so each is a
    one-point sweep of one code seed. A coded protocol needs exactly one of
    --m or --rate; an uncoded one in a list with a coded one ignores them.
    """
    sweep = command == "sweep"

    def values(key, kind):
        return _values(raw, key, kind, sweep)

    protocols = _check("protocol", values("protocol", str), PROTOCOLS.__contains__,
                       f"be one of {', '.join(PROTOCOL_IDS)}")
    ns = _check("n", values("n", int), lambda n: n >= 1, "be positive")
    ps = _flip_rates(raw, sweep)
    modes = _MODES[command]
    (mode,) = _check("mode", [_opt(raw, "mode", str, modes[0])], modes.__contains__,
                     f"be one of {' | '.join(modes)}")
    trials = _count(raw, "trials", _DEFAULT_TRIALS)
    seeds = _count(raw, "seeds", 1)
    aggregate = _opt(raw, "aggregate", bool, False)
    master_seed = _opt(raw, "seed", int, 0)

    coded = [proto for proto in protocols if PROTOCOLS[proto].coded]
    has_m, has_rate = raw.get("m") is not None, raw.get("rate") is not None
    if coded and has_m == has_rate:
        raise ConfigurationError(f"{coded[0]} needs exactly one of --m or --rate")
    if not coded and (has_m or has_rate):
        raise ConfigurationError(f"{', '.join(protocols)} takes neither --m nor --rate")
    sizes: dict[int, list[int]] = {}  # the m of each n, for the coded protocols
    if has_m:
        ms = values("m", int)
        sizes = {n: _check("m", ms, lambda m: 0 <= m <= n, f"lie in [0, n] for n={n}") for n in ns}
    elif has_rate:
        rates = values("rate", float)
        sizes = {n: [m_for_rate(n, rate) for rate in rates] for n in ns}

    # Each point once, in first-seen order: rates can round to one m, and lists can repeat.
    points = dict.fromkeys((proto, n, m, p) for proto in protocols for n in ns for p in ps
                           for m in (sizes[n] if PROTOCOLS[proto].coded else [n]))
    groups = [[_instance_row(*point, master_seed, idx, mode, trials) for idx in range(seeds)]
              for point in points]
    return _aggregate_rows(groups, master_seed) if aggregate else list(chain.from_iterable(groups))


def _instances(args: argparse.Namespace, command: str) -> int:
    raw = _merge_config(args, _KEYS[command])
    out = _opt(raw, "out", str, None)
    _emit_rows(_instance_rows(raw, command) if raw.get("quad") is None else _quad_rows(raw), out)
    return 0


def _quad_rows(raw: dict) -> list[ReportRow]:
    """sweep --quad: the region verdict of one rate quadruple at each p."""
    stray = [f"--{key}" for key in _KEYS["sweep"]
             if key not in _KEYS["region"] and raw.get(key) is not None]
    if stray:
        raise ConfigurationError(f"--quad takes only --p and --out, not {', '.join(stray)}")
    quad = _quad(raw)
    rows = []
    for p in _flip_rates(raw, sweep=True):
        row = ReportRow(protocol=None, n=None, m=None, p=p, seed=None)
        row.r13, row.r23, row.r12, row.rho = quad
        row.in_region = check_rate_region(quad, p)
        rows.append(row)
    return rows


def cmd_simulate(args: argparse.Namespace) -> int:
    return _instances(args, "simulate")


def cmd_leakage(args: argparse.Namespace) -> int:
    return _instances(args, "leakage")


def cmd_sweep(args: argparse.Namespace) -> int:
    return _instances(args, "sweep")


def cmd_region(args: argparse.Namespace) -> int:
    raw = _merge_config(args, _KEYS["region"])
    quad = _quad(raw)
    (p,) = _flip_rates(raw, sweep=False)
    h2 = binary_entropy(p)
    ok = check_rate_region(quad, p)
    verdict = "in-region" if ok else "out-of-region"
    _write(f"min_component={min(quad)!r} h2={h2!r} verdict={verdict}\n", _opt(raw, "out", str, None))
    return 0


# The options each command takes; only sweep reads --n, --m, --rate and --p as comma lists.
_KEYS = {
    "simulate": ("protocol", "n", "m", "rate", "p", "seed", "trials", "mode", "out"),
    "leakage": ("protocol", "n", "m", "rate", "p", "seed", "out"),
    "sweep": ("protocol", "n", "m", "rate", "p", "seed", "seeds", "trials", "mode",
              "aggregate", "quad", "out"),
    "region": ("quad", "p", "out"),
}

# Help text of every option, in help order; each command takes the options its keys name.
_HELP = {
    "protocol": f"one of {', '.join(PROTOCOL_IDS)}",
    "n": "block length (sweep: comma list)",
    "m": "syndrome length (sweep: comma list)",
    "rate": "target rate; m = ceil(n*rate) (sweep: comma list)",
    "p": "source flip rate in [0, 1/2] (sweep: comma list)",
    "seed": "master seed (default 0)",
    "seeds": "independent code instances per point (default 1)",
    "trials": f"Monte Carlo trials (default {_DEFAULT_TRIALS})",
    "mode": "exact | monte-carlo | both | leakage (sweep only); default both, sweep exact",
    "quad": "rate quadruple r13,r23,r12,rho",
    "aggregate": "emit one mean row per sweep point",
    "out": "output path (default stdout)",
}


# The flags that take a value. argparse before Python 3.13 reads a value that
# starts with "-" and is not a plain negative number, such as the list "-0,0",
# as an unknown option; attached as "--p=-0,0" it is read as the value it is.
_VALUE_FLAGS = frozenset(f"--{key}" for key in ("config", *_HELP) if key != "aggregate")
_DASH_VALUE = re.compile(r"-\.?\d")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """argv with each value that starts with "-" and a digit joined to its flag by "="."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and _DASH_VALUE.match(arg):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="securesum",
        description="Simulate and audit three-party secure XOR computation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("simulate", "error analysis of one protocol instance"),
        ("leakage", "exact leakage and rate audit of one instance"),
        ("sweep", "cartesian sweep over protocols, n, p, rates"),
        ("region", "check a rate quadruple against the achievable region"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON file supplying any unset options")
        for key in (key for key in _HELP if key in _KEYS[name]):
            if key == "aggregate":
                sp.add_argument("--aggregate", action="store_const", const=True, default=None,
                                help=_HELP[key])
            else:
                sp.add_argument(f"--{key}", help=_HELP[key])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    # Looked up per call, so a cmd_* replaced on this module after the parser was built still runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ContractViolation, ConfigurationError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3

