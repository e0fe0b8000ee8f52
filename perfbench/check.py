"""Output checker: every job's stdout against properties the paper guarantees.

No golden values: each check is an identity of the protocol, a bound, or a
verdict recomputed here with an independent h2. CSV is parsed by column name
and `#` lines are skipped, so a header-version bump or a new column does not
break the checker.
"""
from __future__ import annotations

import csv
import math

TOL = 1e-10
# Monte Carlo estimate vs exact value: 6 binomial sigmas plus 3 counts of
# slack for the small-count regime. A correct program fails this with
# probability below 1e-7 per job.
MC_SIGMAS = 6.0
MC_SLACK_COUNTS = 3.0
# Same slack the program's region check uses; verdicts the workloads ask for
# are at least 1e-6 away from the boundary.
REGION_SLACK = 1e-9


def h2(q: float) -> float:
    """Binary entropy in bits."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def parse_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(row: dict, key: str) -> float | None:
    value = row.get(key)
    return None if value in (None, "") else float(value)


def check_job(job, text: str) -> list[str]:
    """Problems found in one job's output; empty when the output is right."""
    if job.command == "region":
        return check_region(job.quad, job.ps[0], text)
    try:
        rows = parse_rows(text)
        got = sorted((r.get("protocol"), _int(r.get("n")), _int(r.get("m")), _num(r, "p"))
                     for r in rows)
        if got != sorted(job.expected_points()):
            return [f"rows {got} != expected {sorted(job.expected_points())}"]
        problems = []
        for i, row in enumerate(rows):
            problems += [f"row {i}: {msg}" for msg in check_row(row, job.trials)]
        return problems
    except (csv.Error, ValueError, TypeError) as e:
        return [f"unparsable output: {e!r}"]


def _int(value) -> int | None:
    return int(value) if value not in (None, "") else None


def check_row(row: dict, trials: int | None) -> list[str]:
    problems = []

    def near(key, want):
        got = _num(row, key)
        if got is None or abs(got - want) > TOL:
            problems.append(f"{key}={row.get(key)!r}, want {want!r}")

    proto, n, m, p = row["protocol"], int(row["n"]), int(row["m"]), float(row["p"])
    if proto == "secure-km":
        rates = {"r12": m / n, "r13": m / n, "r23": m / n, "rho": m / n}
        zero_eps, eps3 = ("eps1", "eps2", "eps3"), None
    elif proto == "plain-km":
        rates = {"r12": 0.0, "r13": m / n, "r23": m / n, "rho": 0.0}
        zero_eps, eps3 = ("eps1", "eps2"), m / n
    elif proto == "zero-error-otp":
        rates = {"r12": 1.0, "r13": 1.0, "r23": 1.0, "rho": 1.0}
        zero_eps, eps3 = ("eps1", "eps2", "eps3", "eps4"), None
    else:
        return [f"unknown protocol {proto!r}"]
    for key, want in rates.items():
        near(key, want)
    if _num(row, "eps1") is not None:  # leakage rows only
        for key in zero_eps:
            near(key, 0.0)
        if eps3 is not None:
            near("eps3", eps3)

    exact = _num(row, "p_err_exact")
    if exact is not None:
        cap = 0.0 if proto == "zero-error-otp" else 1.0 - (1.0 - p) ** n
        if not 0.0 <= exact <= cap + 1e-12:
            problems.append(f"p_err_exact={exact!r} outside [0, {cap!r}]")
    mc = _num(row, "p_err_mc")
    if mc is not None:
        if exact is None or trials is None:
            problems.append("p_err_mc without p_err_exact and a trial count")
        else:
            bound = mc_bound(exact, trials)
            if abs(mc - exact) > bound:
                problems.append(f"p_err_mc={mc!r} off p_err_exact={exact!r} by more than {bound!r}")

    verdict = row.get("in_region")
    if verdict not in (None, ""):
        quad = [_num(row, k) for k in ("r13", "r23", "r12", "rho")]
        if None in quad:
            problems.append("in_region without a rate quadruple")
        else:
            want = "true" if min(quad) >= h2(p) - REGION_SLACK else "false"
            if verdict != want:
                problems.append(f"in_region={verdict!r}, want {want!r}")
    return problems


def mc_bound(exact: float, trials: int) -> float:
    if exact == 0.0:  # an event of probability zero is never observed
        return 0.0
    return MC_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials) + MC_SLACK_COUNTS / trials


def check_region(quad, p: float, text: str) -> list[str]:
    fields = dict(part.split("=", 1) for part in text.split() if "=" in part)
    want = "in-region" if min(quad) >= h2(p) - REGION_SLACK else "out-of-region"
    problems = []
    if fields.get("verdict") != want:
        problems.append(f"verdict={fields.get('verdict')!r}, want {want!r}")
    try:
        if abs(float(fields["h2"]) - h2(p)) > TOL:
            problems.append(f"h2={fields['h2']}, want {h2(p)!r}")
    except (KeyError, ValueError):
        problems.append(f"no numeric h2 in {text!r}")
    return problems
