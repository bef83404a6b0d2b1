"""Served predictions against fresh ``predict_benchmark`` runs.

The server runs the analytic model once per (benchmark, scale) and
answers every ``miss_floor`` and ``threshold`` by re-gating that
analysis.  The oracle is the uncached entry point itself: for every
benchmark, floor and threshold tested, the served payload without
``elapsed_ms`` must equal a fresh computation, to the type of each
echoed number (``1`` stays an int, ``1.0`` a float).  And however many
distinct floors clients send, the server holds at most one analysis
per benchmark and scale.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analytic.predict import predict_benchmark
from repro.service import BackgroundServer, ServiceClient, ServiceConfig
from repro.service.cells import SCALES
from repro.workloads.base import TINY
from repro.workloads.registry import all_specs

BENCHMARKS = [spec.name for spec in all_specs()]
_RNG = random.Random(30)
FLOORS = [0, 0.05, 0.5, 1.0, 1] + [_RNG.random() for _ in range(5)]
THRESHOLDS = (0, 0.3, 1)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        store=tmp_path_factory.mktemp("predict-store"), jobs=1, scale=TINY
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture
def client(server):
    return ServiceClient("127.0.0.1", server.port)


def _canonical(payload: dict) -> str:
    payload = dict(payload)
    payload.pop("elapsed_ms")
    return json.dumps(payload, sort_keys=True)


def _requests():
    """(threshold, miss_floor) pairs; ``None`` leaves a field unsent."""
    yield None, None
    for floor in FLOORS:
        yield None, floor
    for threshold in THRESHOLDS:
        yield threshold, None
        yield threshold, 1


@pytest.mark.parametrize("name", BENCHMARKS)
def test_served_equals_fresh(client, name):
    for threshold, floor in _requests():
        served = client.predict(name, threshold=threshold, miss_floor=floor)
        kwargs = {} if floor is None else {"miss_floor": floor}
        fresh = predict_benchmark(name, TINY, threshold=threshold, **kwargs)
        assert _canonical(served) == _canonical(fresh), (threshold, floor)


def test_int_floor_is_echoed_as_sent(client):
    as_int = client.predict("vpenta", miss_floor=1)
    as_float = client.predict("vpenta", miss_floor=1.0)
    assert type(as_int["miss_floor"]) is int
    assert type(as_float["miss_floor"]) is float
    assert as_int["threshold"] == as_float["threshold"] == 1


def test_fresh_floors_add_no_analysis(server, client):
    rng = random.Random(1000)
    floors = {rng.random() for _ in range(1000)}
    while len(floors) < 1000:
        floors.add(rng.random())
    for floor in floors:
        payload = client.predict("vpenta", miss_floor=floor)
        assert payload["miss_floor"] == floor
    client.predict("vpenta", scale="small", miss_floor=0.25)
    held = len(server.service._analyses)
    assert 1 <= held <= len(BENCHMARKS) * len(SCALES)
    assert client.metrics()["predicts"] == held
