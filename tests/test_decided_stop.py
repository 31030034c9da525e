"""Episodes that end once their dip metrics are decided.

`run(config, until_decided=True)`, which `sweep-links` and `compare` call,
ends a TSAU, UAF or BAF episode with freezing off and no attacker at the
first link-row chunk start where every non-gateway node's dip is fixed: the
largest value the network holds is at or below the gateway line, so no
later error can fall below delta, and each node's running minimum error is
already below delta (`_kernels._Episode._decided`).  The tables pin where
the episodes stop today; the property test holds the cut trace to the full
one on random connected graphs.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dipsync._kernels as kernels
import dipsync.engine as engine
from dipsync.cli import repeat_seed, scenario_config
from dipsync.engine import SimConfig, run
from dipsync.errors import EpisodeAborted
from dipsync.metrics import dip_metrics
from dipsync.protocol import ProtocolKind
from dipsync.topology import make_grid
from test_cli import run_cli, write_spec
from test_engine import connected_topologies

TRACE_ROWS = ("estimates", "activated", "frozen", "transmitted", "messages_sent",
              "messages_delivered")


def sweep_config(proto, link_p, seed, ticks=1000):
    """An episode of the benchmark's sweep-lossy workload: `sweep-links` on
    the 4x4 grid, freezing off."""
    return SimConfig(topology=make_grid(4, 4), protocol=proto, link_p=link_p, seed=seed,
                     max_ticks=ticks, freeze_on_dip=False)


def assert_same_metrics(got, want):
    for field in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


# The stop tick of each of sweep-lossy's episodes at --seed 1: p 0.75, 0.5
# and 0.25, each with seeds 1, 1000004 and 1000005, 1000 ticks; 1000 where
# the episode runs in full.  A chunk of the 4x4 grid's 24 link columns is
# 170 ticks, so the checks fall on ticks 1, 171, 341, 511, 681 and 851
SWEEP_LOSSY_STOPS = {
    "tsau": [511, 1000, 511, 511, 511, 1000, 511, 1000, 1000],
    "uaf": [1000, 341, 341, 1000, 1000, 1000, 1000, 851, 1000],
    "baf": [171, 171, 171, 1000, 1000, 341, 851, 851, 1000],
}


@pytest.mark.parametrize("proto", SWEEP_LOSSY_STOPS)
def test_sweep_lossy_stop_ticks(proto):
    stops = [run(sweep_config(ProtocolKind.parse(proto), p, repeat_seed(1, r)),
                 until_decided=True).n_ticks
             for p in (0.75, 0.5, 0.25) for r in range(3)]
    assert stops == SWEEP_LOSSY_STOPS[proto]


# of compare's 33 episodes per scenario (tsau, uaf and baf; seeds 1-11;
# 4000 ticks), those that stop before their last tick
@pytest.mark.parametrize("scenario,stopped", [("grid16", 31), ("line16", 27)])
def test_compare_stopped_episodes(scenario, stopped):
    count = sum(
        run(scenario_config(scenario, ProtocolKind.parse(proto), seed, 4000),
            until_decided=True).n_ticks < 4000
        for proto in ("tsau", "uaf", "baf") for seed in range(1, 12))
    assert count == stopped


@settings(derandomize=True, deadline=None, max_examples=60)
@given(topo=connected_topologies(),
       proto=st.sampled_from([ProtocolKind.TSAU, ProtocolKind.UAF, ProtocolKind.BAF]),
       link_p=st.sampled_from([1.0, 0.9, 0.6, 0.3]), seed=st.integers(0, 2 ** 32 - 1),
       ticks=st.integers(100, 2000), chunk=st.sampled_from([1, 50, 1 << 12]))
def test_a_stopped_episode_is_the_full_ones_head(topo, proto, link_p, seed, ticks, chunk):
    # chunks of `chunk` link elements: a check every tick to every few hundred
    c = SimConfig(topology=topo, protocol=proto, max_ticks=ticks, seed=seed,
                  link_p=link_p, freeze_on_dip=False)
    full = run(c)
    with mock.patch.object(kernels, "_ROW_CHUNK", chunk):
        cut = run(c, until_decided=True)
    stop = cut.n_ticks
    assert_same_metrics(dip_metrics(cut), dip_metrics(full))
    for field in TRACE_ROWS:
        assert np.array_equal(getattr(cut, field), getattr(full, field)[:stop]), field
    # from the stop tick on no estimate rises above the line's last value,
    # less rounding: r = T*(D+6)*2**-53 (see `_Episode._decided`)
    degree = max(len(nbrs) for nbrs in topo.neighbors)
    r = ticks * (degree + 6) * 2.0 ** -53
    k = np.arange(stop, ticks)
    assert np.all(full.estimates[stop:, 1:] <= c.delta * (k - 1)[:, None] * (1 + r))


# BAF at p = 0.75, seed 1 stops at tick 171 of 1000; each change below keeps
# it running to its last tick
@pytest.mark.parametrize("change", [
    {"malicious": True}, {"freeze_on_dip": True}, {"protocol": ProtocolKind.SYNC_BASELINE},
], ids=["attacker", "freezing", "baseline"])
def test_episodes_that_never_stop(change):
    c = sweep_config(ProtocolKind.BAF, 0.75, 1)
    assert run(c, until_decided=True).n_ticks == 171
    c = dataclasses.replace(c, **change)
    cut = run(c, until_decided=True)
    assert cut.n_ticks == 1000
    assert_same_metrics(dip_metrics(cut), dip_metrics(run(c)))


@pytest.mark.parametrize("patch", [
    ("MAX_HOP_COUNTER", 998), ("_DECIDED_MARGIN", 1e-12),
], ids=["hop-counter-could-overflow", "margin-under-rounding"])
def test_no_stop_where_the_bound_does_not_reach(patch, monkeypatch):
    # a hop counter that a later tick could send past its field, or a
    # margin that rounding could eat, keeps the episode running
    monkeypatch.setattr(kernels, *patch)
    assert run(sweep_config(ProtocolKind.BAF, 0.75, 1), until_decided=True).n_ticks == 1000


def test_no_stop_with_a_writer():
    name, args = engine.kernel_inputs(sweep_config(ProtocolKind.BAF, 0.75, 1))
    out = kernels.get_kernel(name)(*args, lambda ep, final: None, True)
    assert out[0].shape == (1000, 16)


def test_run_command_keeps_every_tick(tmp_path, capsys):
    # `dipsync run` simulates every tick of an episode that would stop
    spec = write_spec(tmp_path, protocol="baf", topology="grid:4x4", link_p="0.75",
                      seed="1", max_ticks="1000")
    assert run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)[0] == 0
    rows = (tmp_path / "o" / "trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 1000 * 16


def test_an_abort_after_the_decided_tick_is_raised(monkeypatch):
    # a wire field that the gateway's time overflows at tick 901, long after
    # the tick-171 stop: the episode runs on and aborts where the full one does
    c = sweep_config(ProtocolKind.BAF, 0.75, 1)
    monkeypatch.setattr(kernels, "WIRE_MAX_MICROS", 900000.0)
    with pytest.raises(EpisodeAborted) as full:
        run(c)
    with pytest.raises(EpisodeAborted) as cut:
        run(c, until_decided=True)
    assert cut.value.tick == full.value.tick == 901
