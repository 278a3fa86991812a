"""Open-loop load generation against a :class:`repro.live.LiveResolver`.

Queries arrive as a Poisson process at a fixed offered rate, whatever
the server does (independent users). At each wake-up the generator sends
every query that is already due, then sleeps until the next one is due,
so a slow event-loop iteration delays a batch rather than the whole
schedule. Each query is timed from its due time, which charges a stall
to every query it delays; how late the generator itself ran is recorded
per query as ``lateness``.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from bench_common import median, percentile

#: A stage fails the latency limit above this p99 from due time.
LATENCY_LIMIT_S = 0.100
#: ... or when more than this share of its queries failed.
FAIL_LIMIT = 0.001
#: Generator lateness growing by more than this across a stage means the
#: generator, not the system, set the pace.
BACKLOG_GROWTH_S = 0.005


@dataclass
class StageResult:
    """What one fixed-rate stage measured."""

    rate: float
    duration: float
    attempted: int = 0
    succeeded: int = 0
    timeouts: int = 0
    errors: int = 0
    wrong: int = 0
    rcode_failures: int = 0
    #: Success latencies from due time, in seconds, in completion order.
    latencies: List[float] = field(default_factory=list)
    #: Send time minus due time per query, in issue order.
    lateness: List[float] = field(default_factory=list)
    inflight_max: int = 0

    @property
    def failed(self) -> int:
        return self.timeouts + self.errors + self.wrong + self.rcode_failures

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def latency_p(self, q: float) -> float:
        """*q*-th percentile latency; a failed query counts as infinite."""
        samples = self.latencies + [float("inf")] * self.failed
        return percentile(samples, q) if samples else float("inf")

    @property
    def backlog_grew(self) -> bool:
        return backlog_grows(self.lateness)

    @property
    def passed(self) -> bool:
        return (
            self.attempted > 0
            and self.latency_p(99) <= LATENCY_LIMIT_S
            and self.fail_ratio <= FAIL_LIMIT
            and not self.backlog_grew
        )


def backlog_grows(lateness: Sequence[float],
                  growth: float = BACKLOG_GROWTH_S) -> bool:
    """True when the generator fell further behind over the stage.

    Compares the median lateness of the last third of the queries with
    that of the first third: a generator that keeps up has flat lateness
    however large its jitter, one that cannot falls behind steadily.
    """
    third = len(lateness) // 3
    if third < 2:
        return False
    return median(lateness[-third:]) - median(lateness[:third]) > growth


def poisson_schedule(rng: random.Random, rate: float, duration: float,
                     start: float) -> List[float]:
    """Due times of a Poisson process of *rate* over ``[start, start+duration)``."""
    times = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return times
        times.append(t)


#: ``check(name, rtype, result) -> "ok" | "wrong" | "rcode"``.
Checker = Callable[[str, int, object], str]


async def run_stage(
    resolver,
    rate: float,
    duration: float,
    draw: Callable[[random.Random], Tuple[str, int]],
    check: Checker,
    rng: random.Random,
    timeout: Optional[float] = None,
) -> StageResult:
    """Offer *rate* queries/s for *duration* seconds and wait for them all.

    *timeout* bounds each query; ``None`` keeps the resolver's own.
    """
    loop = asyncio.get_running_loop()
    stage = StageResult(rate=rate, duration=duration)
    begin = loop.time()
    schedule = poisson_schedule(rng, rate, duration, begin)
    queries = [draw(rng) for _ in schedule]
    tasks = []
    inflight = 0

    async def one(due: float, name: str, rtype: int) -> None:
        nonlocal inflight
        try:
            result = await resolver.resolve(name, rtype, timeout=timeout)
        except asyncio.TimeoutError:
            stage.timeouts += 1
            return
        except Exception:  # any stack error is one failed query
            stage.errors += 1
            return
        finally:
            inflight -= 1
        verdict = check(name, rtype, result)
        if verdict == "ok":
            stage.succeeded += 1
            stage.latencies.append(loop.time() - due)
        elif verdict == "rcode":
            stage.rcode_failures += 1
        else:
            stage.wrong += 1

    index = 0
    total = len(schedule)
    while index < total:
        now = loop.time()
        while index < total and schedule[index] <= now:
            due = schedule[index]
            name, rtype = queries[index]
            stage.lateness.append(now - due)
            inflight += 1
            tasks.append(loop.create_task(one(due, name, rtype)))
            index += 1
        if inflight > stage.inflight_max:
            stage.inflight_max = inflight
        if index < total:
            await asyncio.sleep(schedule[index] - loop.time())
    stage.attempted = total
    if tasks:
        await asyncio.wait(tasks)
    return stage


async def capacity_ladder(
    run: Callable[[float], "asyncio.Future"],
    start_rate: float,
    factor: float,
    bisections: int,
    budget_s: float,
    stage_s: float,
    clock: Callable[[], float],
) -> Tuple[float, List[StageResult]]:
    """The highest rate found to pass on a rising ladder.

    Starting at *start_rate*, the rate climbs by *factor* per step until
    a stage fails; then *bisections* geometric bisection steps narrow
    the bracket between the highest passing and the lowest failing rate.
    A stage counts as failed only when it also fails once repeated at
    the same rate, so one stall cannot end the search. The search stops
    early when *budget_s* of wall time is used. Returns the capacity
    (0.0 when even the first rate failed) and every stage run.
    """
    stages: List[StageResult] = []
    deadline = clock() + budget_s

    async def passes(rate: float) -> Optional[bool]:
        for _ in range(2):
            if clock() + stage_s > deadline:
                return None
            stage = await run(rate)
            stages.append(stage)
            if stage.passed:
                return True
        return False

    low, high = 0.0, start_rate
    while True:
        verdict = await passes(high)
        if verdict is None:
            return low, stages
        if not verdict:
            break
        low, high = high, high * factor
    for _ in range(bisections if low else 0):
        rate = (low * high) ** 0.5
        verdict = await passes(rate)
        if verdict is None:
            break
        if verdict:
            low = rate
        else:
            high = rate
    return low, stages
