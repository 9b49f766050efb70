"""Seeded inputs shared by the three workloads.

* A **mix** is four suite kernels, one per hardware thread, with its
  budget band ``[floor, ceiling]``.
* A **request** is a mix plus one budget ``nreg`` inside that band.

Every run repeats one balanced round of :data:`BLOCK` mixes,
:data:`ROUND`.  It was drawn once with replacement from the 11 kernels.
Its 44 thread slots hold each kernel exactly four times, and its
budgets sit at evenly spread positions in their bands.  The seed draws
the order of the mixes within each round and the order of the threads
within each mix.  So every request of a run is distinct: new keys, new
register layouts.  Yet every seed asks for the same work.  Rounds drawn
afresh per seed differ in work by more than any bound the benchmark
could set (see README.md).

The program under test never sees a seed: it receives the generated
assembly text and options only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.core.bounds import Bounds
from repro.core.cache import AnalysisCache
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.suite.registry import BENCHMARKS, load

#: Kernel names in registry (paper Table 1) order.
KERNELS: Tuple[str, ...] = tuple(BENCHMARKS)
#: Hardware threads per PU in every mix.
THREADS = 4
#: Mixes per balanced round: each kernel fills exactly THREADS slots.
BLOCK = len(KERNELS)

#: The round every run repeats: (kernels, budget position in the band,
#: 0 = floor and 1 = ceiling).  Each kernel fills four slots, one mix
#: holds two ``drr`` threads, and every mix has at least 12 thread orders.
ROUND: Tuple[Tuple[Tuple[str, ...], float], ...] = (
    (("fir2dim", "frag", "frag", "ipchains"), 0.73),
    (("ipchains", "l2l3fwd_recv", "wraps_recv", "frag"), 0.58),
    (("l2l3fwd_send", "fir2dim", "crc", "ipchains"), 0.27),
    (("drr", "drr", "crc", "wraps_send"), 0.30),
    (("l2l3fwd_recv", "l2l3fwd_send", "fir2dim", "md5"), 0.87),
    (("l2l3fwd_recv", "md5", "ipchains", "drr"), 0.72),
    (("wraps_send", "l2l3fwd_recv", "l2l3fwd_send", "md5"), 0.54),
    (("wraps_send", "crc", "wraps_recv", "crc"), 0.91),
    (("wraps_recv", "url", "url", "l2l3fwd_send"), 0.40),
    (("wraps_recv", "frag", "drr", "md5"), 0.00),
    (("url", "wraps_send", "url", "fir2dim"), 0.12),
)

#: Options every service request carries (besides programs and nreg).
REQUEST_OPTIONS = {
    "verify": True,
    "simulate": 8,
    "engine": "fast",
    "policy": "greedy",
    "check_init": True,
}


@dataclass(frozen=True)
class Mix:
    """Four kernels on one PU and the mix's budget band."""

    kernels: Tuple[str, ...]
    floor: int
    ceiling: int


@dataclass(frozen=True)
class Request:
    """One allocation request: a mix at one budget."""

    mix: Mix
    nreg: int


@dataclass(frozen=True)
class Suite:
    """The 11 kernels as clients send them, with their bounds."""

    asm: Dict[str, str]
    bounds: Dict[str, Bounds]

    @classmethod
    def load(cls, cache: AnalysisCache) -> "Suite":
        """Kernel text, and bounds through the public
        :meth:`AnalysisCache.bounds` (which fills ``cache``)."""
        asm = {name: format_program(load(name)) for name in KERNELS}
        return cls(asm, {
            name: cache.bounds(program)
            for name, program in parse_kernels(asm).items()
        })

    def band(self, kernels: Sequence[str]) -> Tuple[int, int]:
        """``[floor, ceiling]`` for one mix: the sum of private floors plus
        the largest shared floor, up to the zero-reduction requirement."""
        bs = [self.bounds[k] for k in kernels]
        floor = sum(b.min_pr for b in bs) + max(b.min_r - b.min_pr for b in bs)
        ceiling = sum(b.max_pr for b in bs) + max(b.max_sr for b in bs)
        return floor, ceiling


def parse_kernels(asm: Mapping[str, str]):
    """The programs a server builds from the kernel text."""
    return {name: parse_program(text, name) for name, text in asm.items()}


def _orders(kernels: Sequence[str]) -> List[Tuple[str, ...]]:
    """The distinct thread orders of one mix."""
    return sorted(set(itertools.permutations(kernels)))


def _rounds(seed: int, suite: Suite) -> Iterator[Tuple[Mix, float]]:
    """Endless rounds of :data:`ROUND` in the seed's orders.  Each mix
    walks through its own shuffled list of thread orders, so no order
    repeats for the first 12 rounds."""
    rng = random.Random(f"perfbench/{seed}")
    orders = []
    for kernels, _ in ROUND:
        mine = _orders(kernels)
        rng.shuffle(mine)
        orders.append(mine)
    for k in itertools.count():
        units = list(range(len(ROUND)))
        rng.shuffle(units)
        for i in units:
            threads = orders[i][k % len(orders[i])]
            yield Mix(threads, *suite.band(threads)), ROUND[i][1]


def requests(seed: int, suite: Suite) -> Iterator[Request]:
    """Endless distinct requests (cold traffic)."""
    for mix, position in _rounds(seed, suite):
        span = mix.ceiling - mix.floor
        yield Request(mix, mix.floor + int(round(position * span)))


#: Zipf exponent of the replay draw over the age of earlier requests.
ZIPF_S = 0.6
#: Every REPLAY_PERIOD-th request is new; the others replay.
REPLAY_PERIOD = 3


def replay_requests(seed: int, suite: Suite) -> Iterator[Request]:
    """Endless warm traffic: one request in :data:`REPLAY_PERIOD` is new,
    the others repeat an earlier one.  A replay picks the round in which
    its request first appeared by a Zipf law over rounds (the oldest is
    the most popular), then one request of that round uniformly, so every
    mix of :data:`ROUND` is replayed equally often at every seed."""
    rng = random.Random(f"perfbench/replay/{seed}")
    fresh = requests(seed, suite)
    by_round: List[List[Request]] = []
    for i in itertools.count():
        if i % REPLAY_PERIOD:
            weights = [
                len(seen) / (age + 1) ** ZIPF_S
                for age, seen in enumerate(by_round)
            ]
            yield rng.choice(rng.choices(by_round, weights=weights)[0])
            continue
        if i // REPLAY_PERIOD % BLOCK == 0:
            by_round.append([])
        by_round[-1].append(next(fresh))
        yield by_round[-1][-1]


def mixes(seed: int, suite: Suite) -> Iterator[Mix]:
    """Endless distinct mixes (budget sweeps)."""
    for mix, _ in _rounds(seed, suite):
        yield mix


def request_doc(request: Request, suite: Suite) -> dict:
    """The ``POST /v1/allocate`` body for one request (inline assembly)."""
    doc = {
        "programs": [
            {"asm": suite.asm[k], "name": k} for k in request.mix.kernels
        ],
        "nreg": request.nreg,
    }
    doc.update(REQUEST_OPTIONS)
    return doc
