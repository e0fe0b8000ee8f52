"""Seeded job lists for the three benchmark workloads.

A job is one `securesum` CLI invocation. Each workload is a fixed shape of
jobs; the workload seed only picks the master `--seed` of every job and the
flip rates `--p`, so two seeds do the same amount of work on different codes
and sources. Every job stays inside the program's documented limits, so no
job is expected to fail:

- joint enumeration needs 2n+k <= 22 bits (the guard is 24 today and the
  roadmap plans to move it);
- leader tables need m <= 16 (`build_code(24, 20)` alone takes a minute).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from check import h2

SECURE, PLAIN, OTP = "secure-km", "plain-km", "zero-error-otp"

# Code rates of the coded jobs in error-curve and mc-simulate. Each sits above
# h2(p) for every p its workload draws, so decoding is in its working regime.
ERROR_RATE = 0.6
MC_RATE = 0.75
MC_TRIALS = 10_000


@dataclass(frozen=True)
class Job:
    """One CLI invocation, described by the values the checker needs."""

    command: str  # simulate | leakage | sweep | region
    protocols: tuple[str, ...] = ()
    ns: tuple[int, ...] = ()
    ms: tuple[int, ...] | None = None
    rate: float | None = None
    ps: tuple[float, ...] = ()
    seed: int = 0
    seeds: int = 1
    mode: str | None = None
    trials: int | None = None
    aggregate: bool = False
    quad: tuple[float, ...] | None = None

    def argv(self) -> list[str]:
        if self.command == "region":
            return ["region", "--quad", _csv(self.quad), "--p", _csv(self.ps)]
        argv = [self.command, "--protocol", ",".join(self.protocols),
                "--n", _csv(self.ns), "--p", _csv(self.ps), "--seed", str(self.seed)]
        if self.ms is not None:
            argv += ["--m", _csv(self.ms)]
        if self.rate is not None:
            argv += ["--rate", repr(self.rate)]
        if self.mode is not None:
            argv += ["--mode", self.mode]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        if self.command == "sweep" and self.seeds != 1:
            argv += ["--seeds", str(self.seeds)]
        if self.aggregate:
            argv.append("--aggregate")
        return argv

    def expected_points(self) -> list[tuple[str, int, int, float]]:
        """(protocol, n, m, p) of every CSV row the job must print."""
        points = []
        for proto in self.protocols:
            for n in self.ns:
                if proto == OTP:
                    ms = [n]
                elif self.ms is not None:
                    ms = list(self.ms)
                else:
                    ms = [min(n, math.ceil(n * self.rate))]
                for p in self.ps:
                    points += [(proto, n, m, p) for m in ms]
        copies = 1 if self.aggregate or self.command != "sweep" else self.seeds
        return [pt for pt in points for _ in range(copies)]


def _csv(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


class _Draw:
    """Master seeds and flip rates drawn from the workload seed."""

    def __init__(self, workload: str, seed: int):
        self.rng = Random(f"{workload}:{seed}")

    def seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def p(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 4)

    def ps(self, count: int, lo: float, hi: float) -> tuple[float, ...]:
        return tuple(self.p(lo, hi) for _ in range(count))


def leakage_audit(seed: int) -> list[Job]:
    """Exact leakage audits: many small instances and a few 2^21-2^22 atom ones."""
    d = _Draw("leakage-audit", seed)
    jobs = []
    # The criterion-1 grid shape: n = 2..7, m <= min(n, 6), both coded protocols.
    for n in range(2, 8):
        for m in range(1, min(n, 6) + 1):
            for proto in (SECURE, PLAIN):
                jobs.append(Job("leakage", (proto,), (n,), ms=(m,),
                                ps=(d.p(0.02, 0.3),), seed=d.seed()))
        jobs.append(Job("leakage", (OTP,), (n,), ps=(d.p(0.02, 0.3),), seed=d.seed()))
    # Small multi-point sweeps over all three protocols run on the sweep pool.
    for ns in ((3, 4, 5), (4, 5, 6)):
        jobs.append(Job("sweep", (SECURE, PLAIN, OTP), ns, ms=(2, 3), ps=d.ps(2, 0.02, 0.3),
                        seed=d.seed(), seeds=2, mode="leakage"))
    # The large sweep: (8,5) and (8,6) are 2^21 and 2^22 atoms per pmf, and
    # the pool holds both at once.
    jobs.append(Job("sweep", (SECURE, PLAIN), (8,), ms=(5, 6), ps=d.ps(1, 0.02, 0.3),
                    seed=d.seed(), mode="leakage"))
    return jobs


def error_curve(seed: int) -> list[Job]:
    """Exact decoding error over n = 12..22 on both leader-table builders."""
    d = _Draw("error-curve", seed)
    coded = (SECURE, PLAIN)
    jobs = [
        Job("sweep", coded, tuple(range(12, 19)), rate=ERROR_RATE, ps=d.ps(1, 0.03, 0.1),
            seed=d.seed(), seeds=3, mode="exact", aggregate=True),
        # n <= 20 builds leaders from the full table, n = 21, 22 by search.
        Job("sweep", coded, (20, 21, 22), rate=ERROR_RATE, ps=d.ps(1, 0.03, 0.1),
            seed=d.seed(), mode="exact", aggregate=True),
    ]
    # Single instances at n = 16..18, each tens of milliseconds, so the median
    # job is one of them and not a sub-millisecond region check.
    for n in (16, 17, 18):
        for proto in coded:
            for p in d.ps(2, 0.03, 0.1):
                jobs.append(Job("simulate", (proto,), (n,), rate=ERROR_RATE, ps=(p,),
                                seed=d.seed(), mode="exact"))
    jobs += [_region_job(d) for _ in range(4)]
    return jobs


def _region_job(d: _Draw) -> Job:
    # Redraw until the verdict cannot hinge on the program's region slack.
    while True:
        quad = tuple(d.rng.randrange(1, 9) / 8 for _ in range(4))
        p = d.p(0.02, 0.45)
        if abs(min(quad) - h2(p)) > 1e-6:
            return Job("region", quad=quad, ps=(p,))


def mc_simulate(seed: int) -> list[Job]:
    """Monte Carlo error estimates checked against the exact value."""
    d = _Draw("mc-simulate", seed)
    jobs = []
    for n in (8, 12, 16):
        for proto in (SECURE, PLAIN, OTP):
            for p in d.ps(2, 0.03, 0.12):
                jobs.append(Job("simulate", (proto,), (n,), rate=None if proto == OTP else MC_RATE,
                                ps=(p,), seed=d.seed(), mode="both", trials=MC_TRIALS))
    return jobs


WORKLOADS = {
    "leakage-audit": leakage_audit,
    "error-curve": error_curve,
    "mc-simulate": mc_simulate,
}
