"""Command-line front end: simulate, leakage, sweep, region."""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from random import Random
from statistics import fmean

from .analysis import (
    ReportRow,
    affine_joint,
    check_rate_region,
    csv_header,
    enumerate_joint,  # noqa: F401 - perfbench/tracing.py wraps the name in this module
    leakage_report,
    monte_carlo_error,
    rate_report,
)
from .codes import build_code, exact_error_probability, m_for_rate
from .errors import CapacityError, ConfigurationError, ContractViolation
from .protocol import PROTOCOL_IDS, PROTOCOLS, ProtocolSpec, nominal_rates
from .source import DsbsParams, binary_entropy

CSV_VERSION_COMMENT = "# securesum-csv v1"

_MODES = ("exact", "monte-carlo", "both")
_SWEEP_MODES = _MODES + ("leakage",)
_DEFAULT_TRIALS = 100000


class UsageError(Exception):
    """Bad or inconsistent command-line input."""


def derive_run_seed(master: int, protocol_id: str, n: int, m: int, p: float, index: int) -> int:
    """Stable per-instance seed; builtin hash() is salted, so use sha256."""
    text = f"{master}|{protocol_id}|{n}|{m}|{p:.12g}|{index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class ExperimentConfig:
    """One resolved experiment: protocol, block length, code size, source, seeds."""

    protocol: str
    n: int
    m: int
    p: float
    seed: int
    trials: int
    mode: str
    out: str | None

    @classmethod
    def resolve(cls, raw: dict) -> "ExperimentConfig":
        protocol = _req(raw, "protocol", str)
        if protocol not in PROTOCOL_IDS:
            raise UsageError(f"unknown protocol {protocol!r}; choose from {', '.join(PROTOCOL_IDS)}")
        n = _req(raw, "n", int)
        if n < 1:
            raise UsageError(f"--n must be positive, got {n}")
        p = _req(raw, "p", float)
        if not 0.0 <= p <= 0.5:
            raise UsageError(f"--p must lie in [0, 1/2], got {p}")
        m = _resolve_m(PROTOCOLS[protocol], n, raw)
        mode = _opt(raw, "mode", str, "both")
        if mode not in _SWEEP_MODES:
            raise UsageError(f"unknown mode {mode!r}")
        trials = _opt(raw, "trials", int, _DEFAULT_TRIALS)
        if trials < 1:
            raise UsageError(f"--trials must be positive, got {trials}")
        return cls(
            protocol=protocol,
            n=n,
            m=m,
            p=p,
            seed=_opt(raw, "seed", int, 0),
            trials=trials,
            mode=mode,
            out=_opt(raw, "out", str, None),
        )


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
                    return number
            elif not isinstance(value, float) or value.is_integer():
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"bad value for --{key}: {value!r} (need {_KIND_NAMES[kind]})")


def _req(raw: dict, key: str, kind):
    value = raw.get(key)
    if value is None:
        raise UsageError(f"missing required option --{key}")
    return _cast(key, value, kind)


def _opt(raw: dict, key: str, kind, default):
    """An optional value; only an absent or null one takes the default."""
    return default if raw.get(key) is None else _req(raw, key, kind)


def _list(raw: dict, key: str, kind) -> list:
    """A required non-empty list: a comma-separated string or a JSON list."""
    value = raw.get(key)
    if value is None:
        raise UsageError(f"missing required option --{key}")
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    if not value:
        raise UsageError(f"--{key} list is empty")
    return [_cast(key, v, kind) for v in value]


def _resolve_m(spec: ProtocolSpec, n: int, raw: dict) -> int:
    has_m, has_rate = raw.get("m") is not None, raw.get("rate") is not None
    if not spec.coded:
        if has_m or has_rate:
            raise UsageError(f"{spec.name} takes neither --m nor --rate")
        return n
    if has_m == has_rate:
        raise UsageError(f"{spec.name} needs exactly one of --m or --rate")
    if has_m:
        m = _req(raw, "m", int)
        if not 0 <= m <= n:
            raise UsageError(f"--m must lie in [0, n], got m={m}, n={n}")
        return m
    return m_for_rate(n, _req(raw, "rate", float))


def _merge_config(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Explicit flags win; a JSON --config supplies anything left unset."""
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise UsageError(f"cannot read config file {args.config!r}: {e.strerror or e}")
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise UsageError(f"config file {args.config!r} is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise UsageError(f"config file must hold a JSON object, got {type(doc).__name__}")
        for key, value in doc.items():
            name = key.replace("-", "_")
            if name not in keys:
                raise UsageError(f"config key {key!r} is not an option of this command;"
                                 f" it takes {', '.join(keys)}")
            raw[name] = value
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return raw


def _quad(raw: dict) -> tuple[float, float, float, float]:
    parts = _list(raw, "quad", float)
    if len(parts) != 4:
        raise UsageError(f"--quad needs four comma-separated rates, got {len(parts)}")
    if any(v < 0.0 for v in parts):
        raise UsageError("rates cannot be negative")
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
        raise UsageError(f"cannot write --out file {out!r}: {e.strerror or e}")


def _emit_rows(rows: list[ReportRow], out: str | None) -> None:
    lines = [CSV_VERSION_COMMENT, csv_header()] + [r.csv_line() for r in rows]
    _write("\n".join(lines) + "\n", out)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.resolve(_merge_config(args, _SINGLE_KEYS))
    if cfg.mode == "leakage":
        raise UsageError("mode 'leakage' belongs to the leakage/sweep commands")
    row = _instance_row(cfg.protocol, cfg.n, cfg.m, cfg.p, cfg.seed, 0, cfg.mode, cfg.trials)
    _emit_rows([row], cfg.out)
    return 0


def cmd_leakage(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.resolve(_merge_config(args, _SINGLE_KEYS))
    row = _instance_row(cfg.protocol, cfg.n, cfg.m, cfg.p, cfg.seed, 0, "leakage", cfg.trials)
    _emit_rows([row], cfg.out)
    return 0


def _aggregate_rows(groups: list[list[ReportRow]], master_seed: int) -> list[ReportRow]:
    out = []
    mean_fields = ("eps1", "eps2", "eps3", "eps4", "p_err_exact", "p_err_mc", "mc_ci")
    for group in groups:
        first = group[0]
        row = ReportRow(protocol=first.protocol, n=first.n, m=first.m, p=first.p, seed=master_seed)
        row.r12, row.r13, row.r23, row.rho = first.r12, first.r13, first.r23, first.rho
        for name in mean_fields:
            values = [getattr(r, name) for r in group]
            if all(v is not None for v in values):
                setattr(row, name, fmean(values))
        row.in_region = first.in_region
        out.append(row)
    return out


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = _merge_config(args, _SWEEP_KEYS)
    out = _opt(raw, "out", str, None)
    master_seed = _opt(raw, "seed", int, 0)
    ps = _list(raw, "p", float)
    for p in ps:
        if not 0.0 <= p <= 0.5:
            raise UsageError(f"--p entries must lie in [0, 1/2], got {p}")
    if raw.get("quad") is not None:
        quad = _quad(raw)
        rows = []
        for p in ps:
            row = ReportRow(protocol=None, n=None, m=None, p=p, seed=None)
            row.r13, row.r23, row.r12, row.rho = quad
            row.in_region = check_rate_region(quad, p)
            rows.append(row)
        _emit_rows(rows, out)
        return 0

    protocols = _list(raw, "protocol", str)
    for proto in protocols:
        if proto not in PROTOCOL_IDS:
            raise UsageError(f"unknown protocol {proto!r}")
    ns = _list(raw, "n", int)
    for n in ns:
        if n < 1:
            raise UsageError(f"--n entries must be positive, got {n}")
    mode = _opt(raw, "mode", str, "exact")
    if mode not in _SWEEP_MODES:
        raise UsageError(f"unknown mode {mode!r}")
    trials = _opt(raw, "trials", int, _DEFAULT_TRIALS)
    if trials < 1:
        raise UsageError(f"--trials must be positive, got {trials}")
    instances = _opt(raw, "seeds", int, 1)
    if instances < 1:
        raise UsageError(f"--seeds must be positive, got {instances}")
    aggregate = _opt(raw, "aggregate", bool, False)
    has_m, has_rate = raw.get("m") is not None, raw.get("rate") is not None

    points: list[tuple[str, int, int, float]] = []
    for proto in protocols:
        for n in ns:
            if not PROTOCOLS[proto].coded:
                m_values = [n]
            elif has_m == has_rate:
                raise UsageError(f"{proto} needs exactly one of --m or --rate")
            elif has_m:
                m_values = _list(raw, "m", int)
            else:
                m_values = [m_for_rate(n, r) for r in _list(raw, "rate", float)]
            for p in ps:
                for m in m_values:
                    if not 0 <= m <= n:
                        raise UsageError(f"need 0 <= m <= n, got m={m}, n={n}")
                    points.append((proto, n, m, p))

    groups = [[_instance_row(proto, n, m, p, master_seed, idx, mode, trials)
               for idx in range(instances)]
              for proto, n, m, p in points]
    if aggregate:
        rows = _aggregate_rows(groups, master_seed)
    else:
        rows = list(chain.from_iterable(groups))
    _emit_rows(rows, out)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    raw = _merge_config(args, _REGION_KEYS)
    quad = _quad(raw)
    p = _req(raw, "p", float)
    if not 0.0 <= p <= 0.5:
        raise UsageError(f"--p must lie in [0, 1/2], got {p}")
    h2 = binary_entropy(p)
    ok = check_rate_region(quad, p)
    verdict = "in-region" if ok else "out-of-region"
    _write(f"min_component={min(quad)!r} h2={h2!r} verdict={verdict}\n", _opt(raw, "out", str, None))
    return 0


_SINGLE_KEYS = ("protocol", "n", "m", "rate", "p", "seed", "trials", "mode", "out")
_SWEEP_KEYS = ("protocol", "n", "m", "rate", "p", "seed", "seeds", "trials", "mode",
               "aggregate", "quad", "out")
_REGION_KEYS = ("quad", "p", "out")

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
    "mode": "exact | monte-carlo | both | leakage (sweep only)",
    "quad": "rate quadruple r13,r23,r12,rho",
    "aggregate": "emit one mean row per sweep point",
    "out": "output path (default stdout)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="securesum",
        description="Simulate and audit three-party secure XOR computation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, keys):
        sp.add_argument("--config", help="JSON file supplying any unset options")
        for key in (key for key in _HELP if key in keys):
            if key == "aggregate":
                sp.add_argument("--aggregate", action="store_const", const=True, default=None,
                                help=_HELP[key])
            else:
                sp.add_argument(f"--{key}", help=_HELP[key])

    sp = sub.add_parser("simulate", help="error analysis of one protocol instance")
    add_common(sp, _SINGLE_KEYS)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("leakage", help="exact leakage and rate audit of one instance")
    add_common(sp, _SINGLE_KEYS)
    sp.set_defaults(func=cmd_leakage)

    sp = sub.add_parser("sweep", help="cartesian sweep over protocols, n, p, rates")
    add_common(sp, _SWEEP_KEYS)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("region", help="check a rate quadruple against the achievable region")
    add_common(sp, _REGION_KEYS)
    sp.set_defaults(func=cmd_region)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ContractViolation, ConfigurationError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3

