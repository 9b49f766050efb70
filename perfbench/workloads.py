"""The three workloads: set-up, one unit of work, and its check.

Every workload is a closed loop with one caller, which waits for each
answer before it sends the next unit:

``cold_requests``
    distinct requests over HTTP, each after a fresh
    :class:`~repro.core.cache.AnalysisCache` is installed, as a first
    compile of unseen programs would see;
``warm_requests``
    the same kind of request with the 11 kernels analysed during set-up,
    and one request in three new (:func:`inputs.replay_requests`);
``budget_sweep``
    in-process: one unit is one distinct mix, allocated at every rung of
    its budget ladder and simulated over 16 packet seeds per rung.

A unit's :class:`UnitResult` carries its verdict, the code metrics of
its answer and a digest of everything it returned, so a traced pass can
be checked against an untraced one unit by unit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterator, List

import inputs
from repro.core import cache as core_cache
from repro.core import pipeline
from repro.errors import AllocationError
from repro.ir import parser
from repro.service import ReproServer, ServiceClient, ServiceConfig
from repro.sim import run as sim_run

#: Packet seeds each budget_sweep rung runs on, one batch lane each.
SWEEP_SEEDS = tuple(range(1, 17))
#: Packets per thread in every budget_sweep lane.
SWEEP_PACKETS = 8
#: The fixed mix of every workload's untimed warm-up unit.
WARMUP_MIX = ("crc", "url", "frag", "fir2dim")
#: Kernel whose fixed-address deficit table makes two copies race.
RACING_KERNEL = "drr"


@dataclass
class UnitResult:
    """What one unit returned and how the gate judged it."""

    verdict: str  # "ok", "infeasible" or "failed"
    digest: str
    cycles: int = 0
    moves: int = 0
    detail: str = ""
    comparisons: int = 0  # lanes compared with outputs_match
    schedule_dependent: int = 0  # of which on a racing mix
    schedule_mismatches: int = 0  # of which differed
    first: bool = True  # the first answer to this unit in the run


def _digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def racing(kernels) -> bool:
    """Two or more ``drr`` threads store to the same fixed address, so
    their outputs depend on the interleaving."""
    return sum(k == RACING_KERNEL for k in kernels) >= 2


class Workload:
    """Common set-up: kernel text and bounds from a fresh cache."""

    name = ""
    #: Units in one balanced round; a timed window ends on a whole round.
    round_units = inputs.BLOCK
    #: Units whose code metrics are reported; always run to completion.
    code_units = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.cache = core_cache.AnalysisCache(cache_dir="")
        self.suite = inputs.Suite.load(self.cache)
        self.fingerprints = {
            name: p.fingerprint()
            for name, p in inputs.parse_kernels(self.suite.asm).items()
        }

    def stream(self) -> Iterator:
        raise NotImplementedError

    def run_unit(self, unit) -> UnitResult:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class _RequestWorkload(Workload):
    """A server in this process and one HTTP client."""

    tracer = None

    def setup(self) -> None:
        super().setup()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.server = ReproServer(
            ServiceConfig(store_dir=self.store_dir, default_deadline_s=120.0)
        )
        self.server.start()
        host, port = self.server.address
        self.client = ServiceClient(host, port, timeout=150.0, retries=0)
        self.first_digest: Dict[inputs.Request, str] = {}
        self.distinct = 0
        self.requests = 0
        self.warmup()

    def teardown(self) -> None:
        self.server.drain_and_stop(timeout=30.0)
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def warmup(self) -> None:
        # simulate=4 keys the warm-up apart from every timed request, so
        # it never pre-fills the store for one of them.
        mix = inputs.Mix(WARMUP_MIX, *self.suite.band(WARMUP_MIX))
        request = inputs.Request(mix, mix.ceiling)
        doc = dict(inputs.request_doc(request, self.suite), simulate=4)
        self._install_cache()
        result = self._send(request, doc)
        if result.verdict != "ok":
            raise RuntimeError(f"warm-up request failed: {result.detail}")

    def _install_cache(self) -> None:
        pass

    def run_unit(self, request: inputs.Request) -> UnitResult:
        self._install_cache()
        result = self._send(request, inputs.request_doc(request, self.suite))
        first = self.first_digest.setdefault(request, result.digest)
        result.first = len(self.first_digest) > self.distinct
        self.distinct = len(self.first_digest)
        if first != result.digest:
            result.verdict = "failed"
            result.detail = "a repeated request returned another answer"
        return result

    def _send(self, request: inputs.Request, doc: dict) -> UnitResult:
        self.requests += 1
        try:
            if self.tracer is not None:
                envelope = self.tracer.request(
                    self.requests, self.client.submit, doc
                )
            else:
                envelope = self.client.submit(doc)
        except AllocationError as exc:
            result = UnitResult("infeasible", _digest(["422", str(exc)]))
            if request.nreg >= request.mix.ceiling:
                result.verdict = "failed"
                result.detail = f"infeasible at the ceiling: {exc}"
            return result
        except Exception as exc:
            return UnitResult(
                "failed", _digest([type(exc).__name__, str(exc)]),
                detail=f"{type(exc).__name__}: {exc}",
            )
        return self._check(request, envelope)

    def _check(self, request: inputs.Request, envelope: dict) -> UnitResult:
        payload = envelope["result"]
        result = UnitResult(
            "ok",
            _digest(payload),
            cycles=payload.get("verdict", {}).get("cycles", 0),
            moves=payload["total_moves"],
        )
        expected = [self.fingerprints[k] for k in request.mix.kernels]
        problems = []
        if envelope.get("degraded"):
            problems.append(f"degraded {envelope['degraded']}")
        if payload.get("verified") is not True:
            problems.append("not verified")
        if "verdict" not in payload:
            problems.append("no simulation verdict")
        if payload["source_fingerprints"] != expected:
            problems.append("answer is for other programs")
        if payload["nreg"] != request.nreg or \
                payload["total_registers"] > request.nreg:
            problems.append("answer exceeds the budget")
        if problems:
            result.verdict = "failed"
            result.detail = "; ".join(problems)
        return result


class ColdRequests(_RequestWorkload):
    name = "cold_requests"
    code_units = 2 * inputs.BLOCK

    def _install_cache(self) -> None:
        core_cache.set_cache(core_cache.AnalysisCache(cache_dir=""))

    def stream(self) -> Iterator[inputs.Request]:
        return inputs.requests(self.seed, self.suite)


class WarmRequests(_RequestWorkload):
    name = "warm_requests"
    round_units = inputs.BLOCK * inputs.REPLAY_PERIOD
    code_units = 2 * round_units

    def warmup(self) -> None:
        # The set-up cache already holds the 11 parsed kernels.
        core_cache.set_cache(self.cache)
        super().warmup()

    def stream(self) -> Iterator[inputs.Request]:
        return inputs.replay_requests(self.seed, self.suite)


class BudgetSweep(Workload):
    name = "budget_sweep"
    code_units = 2 * inputs.BLOCK

    def setup(self) -> None:
        super().setup()
        core_cache.set_cache(self.cache)
        self.warmup()

    def warmup(self) -> None:
        mix = inputs.Mix(WARMUP_MIX, *self.suite.band(WARMUP_MIX))
        result = self.run_unit(mix)
        if result.verdict != "ok":
            raise RuntimeError(f"warm-up sweep failed: {result.detail}")
        # Timed mixes must build their own descents.
        self.cache.clear_descents()

    def stream(self) -> Iterator[inputs.Mix]:
        return inputs.mixes(self.seed, self.suite)

    def run_unit(self, mix: inputs.Mix) -> UnitResult:
        programs = [
            parser.parse_program(self.suite.asm[k], k) for k in mix.kernels
        ]
        descent = core_cache.get_cache().descent(programs)
        ladder = sorted({
            descent.reachable(nreg)
            for nreg in range(mix.floor, mix.ceiling + 1)
        })
        try:
            outcomes = pipeline.allocate_programs_sweep(programs, ladder)
        except AllocationError as exc:
            return UnitResult(
                "failed", _digest(["422", str(exc)]),
                detail=f"a reachable rung is infeasible: {exc}",
            )
        source = sim_run.run_seed_sweep(
            programs, SWEEP_SEEDS, packets_per_thread=SWEEP_PACKETS,
            nreg=mix.ceiling, engine="batch",
        )
        schedule_dependent = racing(mix.kernels)
        result = UnitResult("ok", "")
        digest: List = [[r.stats.cycles, r.out_queues] for r in source]
        for nreg in ladder:
            outcome = outcomes[nreg]
            lanes = sim_run.run_seed_sweep(
                outcome.programs, SWEEP_SEEDS,
                packets_per_thread=SWEEP_PACKETS, nreg=nreg, engine="batch",
            )
            mismatches = [
                seed for seed, a, b in zip(SWEEP_SEEDS, source, lanes)
                if not sim_run.outputs_match(a, b)
            ]
            result.comparisons += len(lanes)
            if schedule_dependent:
                result.schedule_dependent += len(lanes)
                result.schedule_mismatches += len(mismatches)
            elif mismatches:
                result.verdict = "failed"
                result.detail = (
                    f"{mix.kernels} at nreg {nreg}: seeds {mismatches} "
                    f"differ from the source programs"
                )
            result.cycles += sum(r.stats.cycles for r in lanes)
            result.moves += outcome.total_moves
            digest.append([
                nreg, outcome.total_moves,
                [p.fingerprint() for p in outcome.programs],
                [[r.stats.cycles, r.out_queues] for r in lanes],
            ])
        result.digest = _digest(digest)
        return result


WORKLOADS = {
    w.name: w for w in (ColdRequests, WarmRequests, BudgetSweep)
}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
