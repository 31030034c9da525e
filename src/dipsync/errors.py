"""Exception types shared across the package."""


class ProtocolViolation(Exception):
    """A `DipDetector` was fed a sample after it had fired."""


class MalformedMessage(ValueError):
    """A wire payload could not be decoded (bad length, invalid field value)."""


class UnreachableNodeError(ValueError):
    """A node has no path to the gateway."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} is unreachable from the gateway")


class ConfigError(ValueError):
    """A simulation configuration was rejected before the run started."""


class EpisodeAborted(RuntimeError):
    """A run was aborted mid-episode; `tick` names the offending tick."""

    def __init__(self, tick: int, reason: str):
        self.tick = tick
        self.reason = reason
        super().__init__(f"episode aborted at tick {tick}: {reason}")
