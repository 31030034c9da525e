"""Outside-in layer tracing for the dipsync benchmark.

The program itself has no tracing.  `Tracer.installed()` wraps, for the
duration of a `with` block, the module attributes through which `cli` and
`engine` call each layer (for example the kernel callable that
`dipsync.engine.get_kernel` returns) and records one span per call:
name, start, end and the index of the enclosing span.  A layer's self time is
the duration of its spans minus the part covered by their child spans.

Span names are "<layer>.<function>"; the layer is the dipsync module:
cli, engine, _kernels, noise, topology or metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import warnings
from contextlib import contextmanager

LAYERS = ("cli", "engine", "_kernels", "noise", "topology", "metrics")


class Tracer:
    """In-memory span and counter log of the traced iterations."""

    def __init__(self):
        self.spans = []         # this iteration: [name, start, end, parent index]
        self.kernel_calls = []  # this iteration: (protocol, link bytes, outputs, warnings)
        self.csv_files = []     # this iteration: (bytes written, rows written)
        self.log = []           # spans of every finished iteration
        self._stack = []

    def finish_iteration(self):
        """Metrics of the iteration just run; its spans move to `log`."""
        result = iteration_metrics(self.spans, self.kernel_calls, self.csv_files)
        self.log.append(self.spans)
        self.spans, self.kernel_calls, self.csv_files = [], [], []
        return result

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_get_kernel(self, get_kernel):
        @functools.wraps(get_kernel)
        def traced_get_kernel(name):
            kernel = get_kernel(name)

            def traced_kernel(*args):
                with self.span(f"_kernels.{name}"):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = kernel(*args)
                # counters are derived in finish_iteration, outside every span
                n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                link_live = args[3]     # the (ticks, edges) link-availability matrix
                self.kernel_calls.append((name, link_live.nbytes, out, n_warn))
                return out
            return traced_kernel
        return traced_get_kernel

    def _wrap_to_csv(self, to_csv):
        @functools.wraps(to_csv)
        def traced_to_csv(trace, path_or_file):
            with self.span("engine.to_csv"):
                to_csv(trace, path_or_file)
            size = os.path.getsize(path_or_file)
            self.csv_files.append((size, trace.n_ticks * trace.node_count))
        return traced_to_csv

    @contextmanager
    def installed(self):
        """Wrap every cross-layer call site of the CLI paths; restore on exit."""
        import dipsync.cli as cli
        import dipsync.engine as engine
        import dipsync.noise as noise
        import dipsync.topology as topology

        sites = [
            (cli, "load_spec", "cli.load_spec"),
            (cli, "parse_keyvalue_file", "engine.parse_keyvalue_file"),
            (cli, "config_from_mapping", "engine.config_from_mapping"),
            (cli, "run", "engine.run"),
            (cli, "dip_metrics", "metrics.dip_metrics"),
            (cli, "summary_table", "metrics.summary_table"),
            (cli, "make_grid", "topology.make_grid"),
            (cli, "make_line", "topology.make_line"),
            (engine, "make_grid", "topology.make_grid"),
            (engine, "make_line", "topology.make_line"),
            (engine, "load_topology", "topology.load_topology"),
            (engine, "connectivity_layers", "topology.connectivity_layers"),
            (noise, "generate", "noise.generate"),
            (noise, "malicious_node", "noise.malicious_node"),
            (noise, "connectivity_layers", "topology.connectivity_layers"),
            (topology.Topology, "edge_index", "topology.edge_index"),
        ]
        patched = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
        patched.append((engine, "get_kernel", engine.get_kernel))
        patched.append((engine.Trace, "to_csv", engine.Trace.to_csv))
        try:
            for owner, attr, name in sites:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            engine.get_kernel = self._wrap_get_kernel(engine.get_kernel)
            engine.Trace.to_csv = self._wrap_to_csv(engine.Trace.to_csv)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def _kernel_counters(calls):
    """Simulated counters of one iteration's kernel calls."""
    node_ticks = {}
    activated = scanned = fired = slaves = idle = ticks = 0
    sent = delivered = mismatch = n_warn = link_bytes = trace_bytes = 0
    for name, link_nbytes, out, warn in calls:
        est, act, frz, tx, snt, dlv, _, _, fire_tick, _ = out
        t, n = est.shape
        node_ticks[name] = node_ticks.get(name, 0) + t * n
        activated += int(act.sum())
        scanned += (t - 1) * (n - 1)
        fired += int((fire_tick[1:] >= 0).sum())
        slaves += n - 1
        all_frozen = frz[:, 1:].all(axis=1)
        if all_frozen.any():
            idle += t - 1 - int(all_frozen.argmax())
        ticks += t
        sent += int(snt.sum())
        delivered += int(dlv.sum())
        # a tick whose sent counter disagrees with the broadcasts it recorded
        mismatch += int((snt != tx.sum(axis=1)).sum())
        n_warn += warn
        link_bytes += link_nbytes
        trace_bytes += sum(a.nbytes for a in (est, act, frz, tx, snt, dlv))
    return node_ticks, {
        "kernels.active_node_tick_frac": activated / scanned if scanned else 0.0,
        "kernels.dip_fired_frac": fired / slaves if slaves else 0.0,
        "kernels.idle_tick_frac": idle / ticks if ticks else 0.0,
        "engine.link_bytes": link_bytes,
        "engine.trace_bytes": trace_bytes,
        "engine.messages_sent": sent,
        "engine.messages_delivered": delivered,
        "engine.delivery_ratio": delivered / sent if sent else 0.0,
        "engine.msg_count_mismatch_ticks": mismatch,
        "engine.runtime_warnings": n_warn,
    }


def self_times(spans):
    """Per-layer self time: each span's duration minus the durations of its
    direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for idx, (name, start, end, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += (end - start) - child[idx]
    return out


def iteration_metrics(spans, kernel_calls, csv_files):
    """Per-layer metrics of one traced iteration: (timings, counters, layer
    self times).  Timings are seconds per iteration unless named otherwise;
    counters are simulated quantities that must repeat exactly."""
    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def count(prefix):
        return sum(1 for s in spans if s[0].startswith(prefix))

    selfs = self_times(spans)
    node_ticks, counters = _kernel_counters(kernel_calls)
    timings = {}
    for proto in ("tsau", "uaf", "baf"):
        nt = node_ticks.get(proto, 0)
        timings[f"kernels.{proto}.us_per_node_tick"] = (
            total(f"_kernels.{proto}") / nt * 1e6 if nt else 0.0)
    csv_s = total("engine.to_csv")
    csv_bytes = sum(f[0] for f in csv_files)
    timings.update({
        "engine.run_s": total("engine.run"),
        "engine.self_s": selfs["engine"],
        "engine.to_csv_s": csv_s,
        "engine.to_csv_mb_per_s": csv_bytes / csv_s / 1e6 if csv_s else 0.0,
        "noise.generate_s": total("noise.generate"),
        "topology.s": selfs["topology"],
        "cli.load_spec_s": total("cli.load_spec"),
        "metrics.dip_metrics_s": total("metrics.dip_metrics"),
        "cli.self_s": selfs["cli"],
    })
    counters.update({
        "engine.to_csv_rows": sum(f[1] for f in csv_files),
        "noise.calls": count("noise.generate"),
        "metrics.calls": count("metrics."),
    })
    return timings, counters, selfs


def median_of(dicts):
    """Key-wise median of a list of equal-keyed dicts."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
