"""The program names that the benchmark's layer tracer wraps.

`perfbench/tracing.py` wraps module attributes of `dipsync.cli`,
`dipsync.engine`, `dipsync.noise` and `dipsync.topology` by name.  If one is
renamed or no longer called through its module global, the traced benchmark
run (`perfbench/run.py --trace 1`) loses that layer's spans.  The tracer's
counters also read the kernel's arguments and outputs by position: the link
matrix at argument 3 and the 10-tuple of outputs.  These tests load the
tracer from its file, read only, and check the spans and counters of one
compare and one run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from test_cli import run_cli, use_cpus, write_spec

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracer(monkeypatch):
    """A `Tracer` from perfbench/tracing.py, with one usable CPU so every
    episode runs, and is traced, in this process."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    use_cpus(monkeypatch, 1)
    return tracing.Tracer()


def span_counts(tracer, args, capsys):
    with tracer.installed():
        assert run_cli(args, capsys)[0] == 0
    return Counter(name for name, *_ in tracer.spans)


def test_compare_has_a_kernel_and_a_dip_metrics_span_per_episode(tracer, capsys):
    counts = span_counts(
        tracer, ["compare", "--scenario", "malicious16", "--ticks", "300"], capsys)
    for proto in ("tsau", "uaf", "baf"):
        assert counts[f"_kernels.{proto}"] == 1
    assert counts["engine.run"] == 3
    assert counts["metrics.dip_metrics"] == 3
    assert counts["metrics.summary_table"] == 1
    assert counts["noise.generate"] == 3
    assert counts["topology.make_grid"] == 3
    counters = tracer.finish_iteration()[1]
    assert counters["engine.link_bytes"] == 3 * 300 * 24
    assert counters["engine.msg_count_mismatch_ticks"] == 0


def test_run_has_a_kernel_a_dip_metrics_and_a_to_csv_span(tracer, tmp_path, capsys):
    spec = write_spec(tmp_path, protocol="baf", max_ticks="120")
    counts = span_counts(tracer, ["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert counts["cli.load_spec"] == 1
    assert counts["engine.config_from_mapping"] == 1
    assert counts["engine.run"] == 1
    assert counts["_kernels.baf"] == 1
    assert counts["metrics.dip_metrics"] == 1
    assert counts["engine.to_csv"] == 1
    assert counts["topology.make_grid"] == 1
    counters = tracer.finish_iteration()[1]
    assert counters["engine.link_bytes"] == 120 * 12
    assert counters["engine.to_csv_rows"] == 120 * 9
    assert counters["engine.msg_count_mismatch_ticks"] == 0
