"""Tests of the benchmark's own input generator.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import itertools
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import inputs  # noqa: E402
from repro.core.cache import AnalysisCache  # noqa: E402


@pytest.fixture(scope="module")
def suite():
    return inputs.Suite.load(AnalysisCache(cache_dir=""))


def take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [
    inputs.requests, inputs.replay_requests, inputs.mixes,
])
def test_one_seed_always_yields_the_same_inputs(suite, make):
    assert take(make(7, suite), 60) == take(make(7, suite), 60)
    assert take(make(7, suite), 60) != take(make(8, suite), 60)


def test_request_documents_are_a_function_of_the_request(suite):
    first = take(inputs.requests(3, suite), 5)
    again = take(inputs.requests(3, suite), 5)
    assert [inputs.request_doc(r, suite) for r in first] == \
        [inputs.request_doc(r, suite) for r in again]


def test_budgets_lie_in_their_band_and_ignore_the_seed(suite):
    budgets = {}
    for seed in (1, 2):
        for request in take(inputs.requests(seed, suite), 3 * inputs.BLOCK):
            mix = request.mix
            assert (mix.floor, mix.ceiling) == suite.band(mix.kernels)
            assert mix.floor <= request.nreg <= mix.ceiling
            budgets.setdefault(tuple(sorted(mix.kernels)), set()).add(
                request.nreg
            )
    assert all(len(b) == 1 for b in budgets.values())


def test_every_round_uses_each_kernel_four_times(suite):
    stream = inputs.mixes(5, suite)
    for _ in range(3):
        slots = Counter(
            k for mix in take(stream, inputs.BLOCK) for k in mix.kernels
        )
        assert slots == Counter({k: inputs.THREADS for k in inputs.KERNELS})


def test_the_round_holds_a_racing_pair():
    assert any(k.count("drr") >= 2 for k, _ in inputs.ROUND)


def test_twelve_rounds_of_requests_and_mixes_are_distinct(suite):
    n = 12 * inputs.BLOCK
    assert len(set(take(inputs.requests(2, suite), n))) == n
    assert len({m.kernels for m in take(inputs.mixes(2, suite), n)}) == n


def test_two_in_three_warm_requests_repeat(suite):
    seen, repeats = set(), 0
    for request in take(inputs.replay_requests(4, suite), 300):
        repeats += request in seen
        seen.add(request)
    assert repeats == 200
