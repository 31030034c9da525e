import pickle

import pytest

from dipsync.errors import (
    ConfigError,
    EpisodeAborted,
    MalformedMessage,
    ProtocolViolation,
    UnreachableNodeError,
)


@pytest.mark.parametrize("exc,message,attrs", [
    (ProtocolViolation("fed after firing"), "fed after firing", {}),
    (MalformedMessage("bad length 3"), "bad length 3", {}),
    (UnreachableNodeError(3), "node 3 is unreachable from the gateway", {"node": 3}),
    (ConfigError("max_ticks must be >= 1"), "max_ticks must be >= 1", {}),
    (EpisodeAborted(5),
     "episode aborted at tick 5: broadcast time overflows the 4-byte wire field",
     {"tick": 5}),
    (EpisodeAborted(70000, "hop counter", 2),
     "episode aborted at tick 70000: broadcast hop counter overflows the 2-byte wire field",
     {"tick": 70000, "field": "hop counter", "nbytes": 2}),
], ids=["ProtocolViolation", "MalformedMessage", "UnreachableNodeError", "ConfigError",
        "EpisodeAborted", "EpisodeAborted-counter"])
def test_errors_survive_a_pickle_round_trip(exc, message, attrs):
    # an error raised in a worker process is raised again in its parent
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) == message
    assert back.args == exc.args
    for name, value in attrs.items():
        assert getattr(back, name) == value
