"""Exception types shared across the package.

Every type survives a pickle round trip with its message and attributes, so
an error raised in a worker process can be raised again in its parent."""


class ProtocolViolation(Exception):
    """A `DipDetector` was fed a sample after it had fired."""


class MalformedMessage(ValueError):
    """A wire payload could not be decoded (bad length, invalid field value)."""


class UnreachableNodeError(ValueError):
    """A node has no path to the gateway."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} is unreachable from the gateway")

    def __reduce__(self):
        return type(self), (self.node,), self.__dict__


class ConfigError(ValueError):
    """A simulation configuration was rejected before the run started."""


class EpisodeAborted(RuntimeError):
    """A broadcast at `tick` overflows one of its wire fields: by default
    the 4-byte microsecond time, or BAF's 2-byte hop counter; the kernel
    raises this, so no trace of the episode is built."""

    def __init__(self, tick: int, field: str = "time", nbytes: int = 4):
        self.tick = tick
        self.field = field
        self.nbytes = nbytes
        super().__init__(f"episode aborted at tick {tick}: broadcast {field} overflows "
                         f"the {nbytes}-byte wire field")

    def __reduce__(self):
        return type(self), (self.tick, self.field, self.nbytes), self.__dict__
