"""The bypass assist's fused record-order L1 filter.

``CacheBypassAssist.filter_l1`` does inline what the assist's hooks do
when the oracle's :func:`tests.cpu.oracle.filter_assist` drives them.
Run on two copies of the same assist and L1, the two must return the
same arrays and leave every field of the L1 sets and statistics, the
MAT, the SLDT, the buffer and the assist's counters the same.  The
streams are built to reach every event of the fill rule: MAT tag
conflicts and aging (also across the filters' ``CHUNK`` boundaries), SLDT
retirements in both directions, bypassed fills, buffer hits and dirty
double words displaced from the buffer.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import simulate_trace
from repro.core.versions import prepare_codes
from repro.hwopt.controller import CacheBypassAssist
from repro.hwopt.mat import MemoryAccessTable
from repro.memory import bulk
from repro.memory.assist import AssistInterface
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import base_config
from repro.telemetry import Telemetry
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec
from tests.cpu import oracle

#: TINY's macro-block, which is also its L1D set span: line ``l`` of
#: every macro-block maps to the same L1D set.
MB = 1024
#: Addresses this far apart share a slot of TINY's 512-entry MAT.
MAT_SPAN = 512 * MB

KINDS = ("hot", "cold", "spatial", "alias")


def _machine():
    return base_config().scaled(TINY.machine_divisor)


def expand(kind, mb, line, word, n, reps, store_pct, seed):
    """One stream segment as ``(addrs, writes)`` columns.

    * ``hot``: one double word, ``n`` times: a hot, non-spatial
      macro-block whose line sits in an L1D set;
    * ``cold``: one double word of line ``line`` in each of ``n`` fresh
      macro-blocks, all in that line's L1D set, ``reps`` times over:
      bypassed behind a hot victim, then re-hit in the buffer;
    * ``spatial``: ``n`` consecutive double words: SLDT promotions;
    * ``alias``: macro-blocks ``MAT_SPAN`` apart in turn: MAT tag
      replacements.
    """
    base = mb * MB + line * 32
    if kind == "hot":
        addrs = np.full(n, base + 8 * word)
    elif kind == "cold":
        addrs = (mb + 16 + np.arange(n)) * MB + line * 32 + 8 * word
    elif kind == "spatial":
        addrs = base + 8 * np.arange(n)
    else:
        addrs = base + MAT_SPAN * (np.arange(n) % (2 + word))
    addrs = np.tile(addrs.astype(np.int64), reps)
    rng = np.random.default_rng(seed)
    return addrs, rng.random(addrs.size) * 100 < store_pct


segments = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 15),  # macro-block
    st.integers(0, 31),  # line
    st.integers(0, 3),  # double word
    st.integers(1, 60),  # length
    st.integers(1, 3),  # repetitions
    st.integers(0, 100),  # stores, percent
    st.integers(0, 2**16),  # store pattern
)


@st.composite
def streams(draw, long=False):
    """A stream of segments; a ``long`` one may be tiled past ``CHUNK``."""
    stream = _stream(draw(st.lists(segments, min_size=1, max_size=25)))
    return _past_chunk(stream) if long and draw(st.booleans()) else stream


def _stream(specs):
    parts = [expand(*spec) for spec in specs]
    return (
        np.concatenate([a for a, _ in parts]),
        np.concatenate([w for _, w in parts]),
    )


def _past_chunk(stream):
    """``stream`` repeated until it spans more than one ``CHUNK``."""
    reps = bulk.CHUNK // stream[0].size + 2
    return tuple(np.tile(column, reps) for column in stream)


def _build(age_interval):
    machine = _machine()
    assist = CacheBypassAssist(machine)
    if age_interval is not None:
        assist.mat = MemoryAccessTable(
            machine.bypass, age_interval=age_interval
        )
    return oracle.as_oracle(assist), MemoryHierarchy(machine, assist).l1d


def state(assist, l1):
    """Every live field the L1 filters read or write, by name."""
    mat, sldt, buffer = assist.mat, assist.sldt, assist.buffer
    return {
        "l1 sets": [
            [(ln, blk.dirty) for ln, blk in od.items()] for od in l1._sets
        ],
        "l1 stats": vars(l1.stats),
        "mat tags": mat._tags,
        "mat counters": mat._counters,
        "mat since aging": mat._since_aging,
        "mat replacements": mat.replacements,
        "sldt table": list(sldt._table.items()),
        "sldt spatial": list(sldt._spatial.items()),
        "sldt promotions": sldt.spatial_promotions,
        "sldt demotions": sldt.spatial_demotions,
        "buffer words": list(buffer._words.items()),
        "buffer hits": buffer.hits,
        "buffer misses": buffer.misses,
        "buffer insertions": buffer.insertions,
        "assist hits": assist._hits,
        "assist bypassed": assist._bypassed,
    }


def outputs(result):
    """The returned columns, by name."""
    *arrays, tracked = result
    names = ["miss", "demand", "served", "wb_idx", "wb_lines"]
    out = {name: a.tolist() for name, a in zip(names, arrays)}
    if tracked is not None:
        for name, a in zip(["free_fills", "bypassed", "occupancy"], tracked):
            out[name] = a.tolist()
    return out


def _differing(left, right):
    # Names only: a diff of whole columns is slow to render and long.
    keys = left.keys() | right.keys()
    return sorted(k for k in keys if left.get(k) != right.get(k))


def assert_fused_matches_hooks(prefix, stream, age_interval, track):
    """Run ``prefix`` through the hooks, then ``stream`` both ways."""
    assist, l1 = _build(age_interval)
    oracle.filter_assist(assist, l1, *prefix)
    twin_assist, twin_l1 = copy.deepcopy((assist, l1))
    fused = assist.filter_l1(l1, *stream, track=track)
    hooked = oracle.filter_assist(
        twin_assist, twin_l1, *stream, track=track
    )
    assert _differing(outputs(fused), outputs(hooked)) == []
    assert _differing(state(assist, l1), state(twin_assist, twin_l1)) == []
    return assist, fused


@settings(max_examples=60, deadline=None)
@given(
    prefix=streams(),
    stream=streams(long=True),
    age_interval=st.sampled_from([None, 7, 61]),
    track=st.booleans(),
)
def test_fused_loop_matches_the_hooks(prefix, stream, age_interval, track):
    assert_fused_matches_hooks(prefix, stream, age_interval, track)


def test_streams_reach_every_event():
    """A fixed stream of the segments above reaches each event the
    property is meant to cover, and the two filters still agree."""
    hot = [("hot", 2, 5, 0, 40, 1, 0, 0)]
    cold = [
        ("cold", 2, 5, 1, 10, 2, 70, 1),  # fits the buffer: re-hit
        ("cold", 2, 5, 2, 40, 1, 70, 4),  # overflows it: displacement
    ]
    mixed = [
        ("spatial", 3, 0, 0, 200, 1, 30, 2),
        ("alias", 4, 7, 1, 50, 1, 50, 3),
    ]
    prefix = _stream(mixed)
    stream = _past_chunk(_stream(hot + cold + mixed + hot + cold))
    for age_interval in (None, 61):
        assist, (_, _, served, wb_idx, _, _) = assert_fused_matches_hooks(
            prefix, stream, age_interval, True
        )
        assert assist.bypassed_fills > assist.buffer.capacity
        assert served.size > 0
        assert assist.buffer.insertions > assist.buffer.capacity
        assert wb_idx.size > 0
        assert assist.mat.replacements > 0
        assert assist.sldt.spatial_promotions > 0
        assert assist.sldt.spatial_demotions > 0


@pytest.mark.parametrize("interval", [None, 97])
def test_bypass_spans_take_the_fused_loop(monkeypatch, interval):
    """Plain and sampled bypass runs take the fused loop, and never the
    miss-stream filter path of the other assists."""
    entered = []
    fused = CacheBypassAssist.filter_l1

    def spy(self, *args, **kwargs):
        entered.append(kwargs.get("track"))
        return fused(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a bypass span took the miss-stream filter")

    machine = _machine()
    codes = prepare_codes(get_spec("tpcd_q3"), TINY, machine)
    monkeypatch.setattr(AssistInterface, "filter_misses", refuse)
    monkeypatch.setattr(CacheBypassAssist, "filter_l1", spy)
    telemetry = Telemetry(interval=interval) if interval else None
    simulate_trace(
        codes.base_trace, machine, mechanism="bypass", telemetry=telemetry
    )
    assert entered and all(track is bool(interval) for track in entered)
