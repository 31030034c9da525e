import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dipsync
import dipsync.cli as cli
from dipsync._forkmap import WorkerTraceback, fork_map
from dipsync.cli import main
from dipsync.errors import ConfigError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_spec(tmp_path, **overrides):
    fields = {
        "name": "mini",
        "protocol": "tsau",
        "topology": "grid:3x3",
        "max_ticks": "300",
        "seed": "5",
        "freeze_on_dip": "false",
    }
    fields.update(overrides)
    path = tmp_path / "mini.spec"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    return path


def test_run_bundled_spec(tmp_path, capsys):
    code, out, _ = run_cli(["run", "grid16-tsau", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "metrics.csv").exists()
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "seed = 42" in manifest
    assert "protocol = tsau" in manifest


def test_run_twice_byte_identical(tmp_path, capsys):
    spec = write_spec(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", str(spec), "--out", str(a)], capsys)[0] == 0
    assert run_cli(["run", str(spec), "--out", str(b)], capsys)[0] == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_run_records_link_p_in_manifest(tmp_path, capsys):
    spec = write_spec(tmp_path, link_p="0.25")
    code, *_ = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    assert "link_p = 0.25" in (tmp_path / "o" / "manifest.txt").read_text()


def test_run_records_kernel_backend_in_manifest(tmp_path, capsys):
    spec = write_spec(tmp_path)
    code, *_ = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    lines = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert "kernel_backend = pure" in lines


def test_run_env_seed_override(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path)
    monkeypatch.setenv("DIPSYNC_SEED", "123")
    run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert "seed = 123" in (tmp_path / "o" / "manifest.txt").read_text()


def test_run_repeats_emit_per_repeat_traces(tmp_path, capsys):
    spec = write_spec(tmp_path, repeat="3", max_ticks="120")
    run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    for r in range(3):
        assert (tmp_path / "o" / f"trace_r{r}.csv").exists()
    metrics = (tmp_path / "o" / "metrics.csv").read_text()
    assert "median_e_dip_min" in metrics


def test_run_rejects_missing_spec(tmp_path, capsys):
    code, _, err = run_cli(["run", str(tmp_path / "nope.spec")], capsys)
    assert code == 2
    assert "error" in err


def test_run_rejects_invalid_spec(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("protocol = tsau\n", encoding="utf-8")  # missing topology
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 2


def test_run_rejects_non_integer_repeat(tmp_path, capsys):
    spec = write_spec(tmp_path, repeat="two")
    code, _, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("error: repeat")


def test_run_rejects_non_integer_env_seed(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path)
    monkeypatch.setenv("DIPSYNC_SEED", "x")
    code, _, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("error: DIPSYNC_SEED")


@pytest.mark.parametrize("args", [
    ["sweep-links", "--protocol", "baf", "--p", "0.75", "--repeats", "2", "--ticks", "300"],
    ["compare", "--scenario", "malicious16", "--ticks", "300"],
], ids=["sweep", "compare"])
def test_sweep_and_compare_take_their_seed_from_the_flag_only(args, capsys, monkeypatch):
    # DIPSYNC_SEED overrides a spec's seed; --seed has no second source
    want = run_cli([*args, "--seed", "3"], capsys)
    assert want[0] == 0
    assert want != run_cli([*args, "--seed", "5"], capsys)
    for env_seed in ("5", "x"):
        monkeypatch.setenv("DIPSYNC_SEED", env_seed)
        assert run_cli([*args, "--seed", "3"], capsys) == want


def test_run_rejects_an_edge_list_whose_gateway_is_not_node_0(tmp_path, capsys):
    edges = tmp_path / "net.txt"
    edges.write_text("4 2\n0 1\n1 2\n2 3\n", encoding="utf-8")
    spec = write_spec(tmp_path, topology=f"edgelist:{edges}")
    code, out, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {edges}: gateway id must be 0, got 2\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides,message", [
    ({"seed": "-3"}, "error: seed must be non-negative"),
    ({"topology": "edgelist:{tmp}/missing.txt"},
     "error: {tmp}/missing.txt: cannot read topology file"),
    # delta of 10 s: the gateway's 4-byte microsecond field overflows at tick 430
    ({"topology": "line:3", "delta": "10", "max_ticks": "1000"},
     "error: episode aborted at tick 430: "),
    ({"max_ticks": "100000000000"}, "error: max_ticks 100000000000 needs "),
    ({"delta": "nan"}, "error: delta must be positive and finite, got nan"),
    ({"delta": "inf"}, "error: delta must be positive and finite, got inf"),
    ({"topology": "grid:4x4:br"}, "error: grid spec must be grid:RxC, got 'grid:4x4:br'"),
    # the output directory is --out alone
    ({"output_dir": "{tmp}/o"}, "error: unknown config keys: ['output_dir']"),
    ({"max_ticks": "abc"}, "error: max_ticks must be an integer, got 'abc'"),
    ({"delta": "abc"}, "error: delta must be a number, got 'abc'"),
    ({"topology": "line:abc"}, "error: line spec must be line:N, got 'line:abc'"),
    ({"topology": "edgelist:"}, "error: edgelist spec must be edgelist:PATH, got 'edgelist:'"),
], ids=["negative-seed", "missing-edgelist", "aborted-episode", "oversized-max-ticks",
        "nan-delta", "inf-delta", "grid-corner", "output-dir-key", "text-max-ticks",
        "text-delta", "text-line-length", "empty-edgelist"])
def test_run_reports_bad_spec_or_abort_as_error(overrides, message, tmp_path, capsys):
    spec = write_spec(tmp_path, **{k: v.format(tmp=tmp_path) for k, v in overrides.items()})
    code, _, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith(message.format(tmp=tmp_path))
    assert not (tmp_path / "o").exists()


def test_run_rejects_more_nodes_than_sender_ids_before_building_them(tmp_path, capsys,
                                                                    monkeypatch):
    # 90000 nodes: ids from 65536 on do not fit the 2-byte sender id
    def make_grid(rows, cols):
        raise AssertionError("the grid was built")

    monkeypatch.setattr("dipsync.engine.make_grid", make_grid)
    spec = write_spec(tmp_path, topology="grid:300x300", max_ticks="3")
    code, out, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: 90000 nodes: node ids above 65535 do not fit the 2-byte "
                   "sender id field\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,out,named,reason", [
    (["run", "{spec}"], "{tmp}/file", "{tmp}/file", "File exists"),
    (["run", "{spec}"], "{tmp}/d", "{tmp}/d/trace.csv", "Is a directory"),
    (["sweep-links", "--protocol", "tsau", "--p", "1", "--repeats", "1", "--ticks", "50"],
     "{tmp}/missing/x.csv", "{tmp}/missing/x.csv", "No such file or directory"),
    (["energy"], "{tmp}/missing/x.csv", "{tmp}/missing/x.csv", "No such file or directory"),
], ids=["run-out-is-a-file", "run-trace-is-a-directory", "sweep-out-in-missing-dir",
        "energy-out-in-missing-dir"])
def test_output_that_cannot_be_written_is_an_error(command, out, named, reason, tmp_path,
                                                   capsys):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "d" / "trace.csv").mkdir(parents=True)
    spec = write_spec(tmp_path)
    out = out.format(tmp=tmp_path)
    code, _, err = run_cli([arg.format(spec=spec) for arg in command] + ["--out", out], capsys)
    assert (code, err) == (2, f"error: {named.format(tmp=tmp_path)}: cannot write output: "
                              f"{reason}\n")
    # the trace writer removes its unfinished file
    assert not list(tmp_path.glob("d/.trace.csv.*.tmp"))


@pytest.mark.parametrize("line,key", [
    ("protocol = uaf", "protocol"), ("name = other", "name"), ("repeat = 2", "repeat"),
], ids=["protocol", "name", "repeat"])
def test_run_rejects_a_spec_that_sets_a_key_twice(line, key, tmp_path, capsys):
    spec = write_spec(tmp_path, repeat="1")
    with spec.open("a", encoding="utf-8") as fh:
        fh.write(f"{line}\n")
    lineno = len(spec.read_text(encoding="utf-8").splitlines())
    code, out, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {spec}:{lineno}: duplicate key '{key}'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content,message", [
    (b"x 0\n0 1\n", "first line must be 'N gateway_id', got 'x 0'"),
    (b"2 0 1\n0 1\n", "first line must be 'N gateway_id', got '2 0 1'"),
    (b"2 0\n0 a\n", "bad edge line '0 a'"),
    (b"2 0\n0 1 # caf\xe9\n", "topology file is not UTF-8 text"),
    (b"3 0\n0 1\n1 1\n", "self-loop on node 1"),
    (b"3 0\n0 1\n", "node 2 is unreachable from the gateway"),
], ids=["text-header", "long-header", "text-edge", "latin-1", "self-loop",
        "unreachable"])
def test_run_names_the_edge_list_it_rejects(content, message, tmp_path, capsys):
    edges = tmp_path / "net.txt"
    edges.write_bytes(content)
    spec = write_spec(tmp_path, topology=f"edgelist:{edges}")
    code, out, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {edges}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content,message", [
    (None, "cannot read spec file: Is a directory"),
    (b"protocol = tsau # caf\xe9\n", "spec file is not UTF-8 text"),
], ids=["directory", "latin-1"])
def test_run_names_the_spec_file_it_cannot_read(content, message, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    if content is None:
        spec.mkdir()
    else:
        spec.write_bytes(content)
    code, out, err = run_cli(["run", str(spec), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {spec}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,message", [
    (["sweep-links", "--protocol", "tsau", "--p", "1", "--repeats", "1", "--ticks", "50",
      "--seed", "-2"], "error: seed must be non-negative"),
    (["compare", "--scenario", "grid16", "--ticks", "50", "--seed", "-3"],
     "error: seed must be non-negative"),
    (["sweep-links", "--protocol", "tsau", "--p", "1", "--repeats", "0"], "error: --repeats"),
    (["compare", "--scenario", "grid16", "--protocols", "foo", "--ticks", "50"],
     "error: unknown protocol 'foo'"),
    (["sweep-links", "--protocol", "foo", "--p", "1", "--repeats", "1", "--ticks", "50"],
     "error: unknown protocol 'foo'"),
    (["sweep-links", "--protocol", "tsau", "--p", "1", "--ticks", "100000000000"],
     "error: max_ticks 100000000000 needs "),
    (["compare", "--scenario", "grid16", "--ticks", "100000000000"],
     "error: max_ticks 100000000000 needs "),
], ids=["sweep-negative-seed", "compare-negative-seed", "sweep-zero-repeats",
        "compare-unknown-protocol", "sweep-unknown-protocol", "sweep-oversized-ticks",
        "compare-oversized-ticks"])
def test_sweep_and_compare_reject_bad_arguments(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


def test_sweep_links_rows(tmp_path, capsys):
    code, out, _ = run_cli(
        ["sweep-links", "--protocol", "uaf", "--p", "1", "0.5",
         "--repeats", "2", "--ticks", "600", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("p,median_E_dip_min")
    assert len(lines) == 3
    assert lines[1].startswith("1")


def test_sweep_links_rejects_empty_and_bad_p(capsys):
    assert run_cli(["sweep-links", "--protocol", "tsau"], capsys) == (
        2, "", "error: empty probability list\n")
    assert run_cli(["sweep-links", "--protocol", "tsau", "--p", "1.5"], capsys) == (
        2, "", "error: probability 1.5 outside [0, 1]\n")
    assert run_cli(["sweep-links", "--protocol", "tsau", "--p", "1", "--repeats", "0"],
                   capsys) == (2, "", "error: --repeats must be >= 1\n")


def test_sweep_links_perfect_links_have_smallest_error(capsys):
    # sequential updating degrades monotonically with link loss
    code, out, _ = run_cli(
        ["sweep-links", "--protocol", "tsau", "--p", "1", "0.5",
         "--repeats", "5", "--ticks", "6000", "--seed", "1"], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    medians = {float(r[0]): float(r[1]) for r in rows}
    assert medians[1.0] < medians[0.5]


def test_compare_single_protocol_single_row(capsys):
    code, out, _ = run_cli(
        ["compare", "--scenario", "grid16", "--protocols", "tsau", "--ticks", "600"], capsys)
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if "," in ln]
    assert len(lines) == 2  # header + one row


def test_compare_all_protocols_reports_checks(capsys):
    code, out, _ = run_cli(["compare", "--scenario", "grid16", "--ticks", "1200"], capsys)
    assert code == 0
    assert "check uaf_lowest_variance:" in out
    assert "check baf_lowest_error:" in out
    names = [ln.split(",")[0] for ln in out.strip().split("\n")[1:4]]
    assert names == ["tsau", "uaf", "baf"]


@pytest.mark.parametrize("scenario", ["grid16", "malicious16"])
def test_compare_checks_need_tsau_uaf_and_baf(scenario, capsys):
    # three results without tsau: the table only, no checks
    code, out, err = run_cli(["compare", "--scenario", scenario, "--protocols", "baseline",
                              "uaf", "baf", "--ticks", "200"], capsys)
    assert (code, err) == (0, "")
    assert [ln.split(",")[0] for ln in out.strip().split("\n")] == [
        "protocol", "uaf", "baf", "baseline"]
    # with the baseline added, the checks still rank tsau, uaf and baf only
    three = run_cli(["compare", "--scenario", scenario, "--ticks", "200"], capsys)[1]
    code, four, _ = run_cli(["compare", "--scenario", scenario, "--protocols", "baseline",
                             "tsau", "uaf", "baf", "--ticks", "200"], capsys)
    assert code == 0
    checks = [ln for ln in three.splitlines() if ln.startswith("check ")]
    assert len(checks) == 2
    assert [ln for ln in four.splitlines() if ln.startswith("check ")] == checks


def test_compare_runs_each_distinct_protocol_once(capsys, monkeypatch):
    # a repeated protocol is one episode and one row; the bytes are those of
    # the version that ran it twice
    run = cli.run
    calls = []

    def counting_run(cfg, **kwargs):
        calls.append(cfg.protocol.value)
        return run(cfg, **kwargs)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "run", counting_run)
    assert run_cli(["compare", "--scenario", "grid16", "--protocols", "tsau", "TSAU",
                    "baseline", "--ticks", "200"], capsys) == (0, (
        "protocol,E_dip_min,k_dip_min,V_k_dip\n"
        "tsau,0.08965692807420694,12.4,11.17333333333334\n"
        "baseline,0.00032069435895060264,101.93333333333334,25.26222222222223\n"), "")
    assert calls == ["tsau", "baseline"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def shares_by_process(results):
    """The items of `fork_map(lambda x: (x, os.getpid()), ...)` results,
    grouped by the process that ran them: this process's share first."""
    shares = {os.getpid(): []}
    for item, pid in results:
        shares.setdefault(pid, []).append(item)
    return list(shares.values())


def test_fork_map_runs_the_costliest_item_alone_here():
    # tsau, uaf and baf at costs 1, 2 and 3: baf goes to this process, and
    # the lighter two, 1 + 2 = 3, to one child
    items = ["tsau", "uaf", "baf"]
    cost = {"tsau": 1, "uaf": 2, "baf": 3}
    got = fork_map(lambda x: (x, os.getpid()), items, 2, cost=cost.__getitem__)
    assert_no_child_left()
    assert [item for item, _ in got] == items
    assert shares_by_process(got) == [["baf"], ["tsau", "uaf"]]


@pytest.mark.parametrize("cost", [lambda x: 1, lambda x: 0.21], ids=["one", "equal"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_with_equal_costs_is_the_stride(cost, workers):
    # the split of sweep-links, whose episodes share one protocol and one
    # tick count: worker w runs items w, w + workers, ...
    for count in (3, 4, 8, 11):
        items = [f"item{i}" for i in range(count)]
        fds = len(os.listdir("/proc/self/fd"))
        got = fork_map(lambda x: (x, os.getpid()), items, workers, cost=cost)
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert [item for item, _ in got] == items
        assert shares_by_process(got) == [items[w::workers] for w in range(workers)]


def test_fork_map_runs_each_share_in_item_order():
    # item 3 runs here alone and a child runs items 0, 1 and 2, in item
    # order although item 2 costs more; items 1 and 2 fail, and the child
    # stops at item 1, the first failure in item order
    def fn(item):
        if item in (1, 2):
            raise ValueError(f"item {item} fails")
        return item

    with pytest.raises(ValueError, match="^item 1 fails$") as exc:
        fork_map(fn, range(4), 2, cost=[1, 1, 2, 10].__getitem__)
    assert isinstance(exc.value.__cause__, WorkerTraceback)
    assert_no_child_left()


def test_fork_map_raises_the_first_failure_of_all_shares():
    # this process runs items 0 and 2, the child items 1 and 3; items 1 and
    # 2 fail, and item 1 is raised, although this process's share starts
    # at an earlier item
    def fn(item):
        if item in (1, 2):
            raise ValueError(f"item {item} fails")
        return item

    with pytest.raises(ValueError, match="^item 1 fails$") as exc:
        fork_map(fn, range(4), 2, cost=lambda x: 1)
    assert isinstance(exc.value.__cause__, WorkerTraceback)
    assert_no_child_left()


def test_fork_map_raises_when_a_child_ends_without_a_result():
    # the child's share is items 1 and 3, and item 1 ends the child
    here = os.getpid()

    def fn(item):
        if item == 1 and os.getpid() != here:
            os._exit(1)
        return item

    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match=r"^worker process \d+ ended without a result$"):
        fork_map(fn, range(4), 2, cost=lambda x: 1)
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds


def test_every_protocol_has_an_episode_cost():
    costs = {kind.value: cli.episode_cost(cli.scenario_config("grid16", kind, 1, 300))
             for kind in dipsync.ProtocolKind}
    assert costs["tsau"] < costs["uaf"] < costs["baf"] < costs["baseline"]
    assert costs["tsau"] > 0


EPISODE_MAPS = {
    "sweep": ["sweep-links", "--protocol", "baf", "--p", "0.75", "0.5", "0.25",
              "--repeats", "3", "--ticks", "400", "--seed", "2"],
    "compare": ["compare", "--scenario", "malicious16", "--ticks", "600"],
}


@pytest.mark.parametrize("args", EPISODE_MAPS.values(), ids=EPISODE_MAPS.keys())
def test_episodes_on_more_cpus_give_identical_output(args, capfd, monkeypatch):
    # 1 CPU runs every episode here; 2 and 3 fork one and two children, whose
    # writes to file descriptors 1 and 2 would show in capfd
    outputs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        outputs.append(run_cli(args, capfd))
        assert_no_child_left()
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_episode_map_reports_the_first_failure_in_item_order(cpus, capsys, monkeypatch):
    # items 0, 1 and 2 are tsau, uaf and baf; with 2 CPUs this process runs
    # baf, the costliest, and a child runs tsau and uaf
    run = cli.run

    def failing_run(cfg, **kwargs):
        if cfg.protocol.value in ("uaf", "baf"):
            raise ConfigError(f"{cfg.protocol.value} fails")
        return run(cfg, **kwargs)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "run", failing_run)
    assert run_cli(["compare", "--scenario", "grid16", "--ticks", "100"], capsys) == (
        2, "", "error: uaf fails\n")
    assert_no_child_left()


def test_episode_map_raises_a_child_error_with_its_traceback(capfd, monkeypatch):
    # with 2 CPUs a child runs item 1, tsau; an error it raises is raised here
    # with the same type and message, caused by the child's traceback
    run = cli.run

    def failing_run(cfg, **kwargs):
        if cfg.protocol.value == "tsau":
            raise ValueError("tsau fails")
        return run(cfg, **kwargs)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run", failing_run)
    with pytest.raises(ValueError, match="^tsau fails$") as exc:
        main(["compare", "--scenario", "grid16", "--protocols", "uaf", "tsau",
              "--ticks", "100"])
    assert "in failing_run" in str(exc.value.__cause__)
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_episode_map_kills_its_children_when_interrupted(capsys, monkeypatch):
    # item 0 interrupts this process while a child sleeps in item 1; the
    # child is killed and reaped, not waited for
    def interrupted_run(cfg, **kwargs):
        if cfg.protocol.value == "uaf":
            raise KeyboardInterrupt
        time.sleep(60)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run", interrupted_run)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["compare", "--scenario", "grid16", "--protocols", "uaf", "tsau",
              "--ticks", "100"])
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_episode_map_runs_here_without_fork_or_memory(capsys, monkeypatch):
    # two episodes, two CPUs: a child would run item 0, tsau, the cheaper,
    # unless os.fork is missing or physical memory holds only one episode
    args = ["compare", "--scenario", "grid16", "--protocols", "tsau", "uaf", "--ticks", "300"]
    use_cpus(monkeypatch, 1)
    want = run_cli(args, capsys)
    use_cpus(monkeypatch, 2)
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert run_cli(args, capsys) == want
    with monkeypatch.context() as m:
        one = cli.episode_bytes(cli.scenario_config("grid16", dipsync.ProtocolKind.UAF, 1, 300))
        m.setattr(cli, "physical_memory", lambda: one + 1)
        m.setattr(os, "fork", lambda: pytest.fail("forked with memory for one episode"))
        assert run_cli(args, capsys) == want


def test_compare_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["compare", "--scenario", "ring99"])


ENERGY_TABLE = (
    "protocol,cpu_ticks,payload_bytes,packet_bytes,cpu_uJ,tx_uJ,rx_uJ,total_uJ,"
    "quoted_total_uJ_unverified\n"
    "tsau,141,6,24,3.0456,43.54560000000001,48.31488000000001,94.90608000000002,14.53\n"
    "uaf,133,7,25,2.8728000000000002,45.36000000000001,50.328,98.5608,14.8\n"
    "baf,162,9,27,3.4992000000000005,48.988800000000005,54.354240000000004,"
    "106.84224000000002,16.4\n"
    "ftsp,5440,9,27,117.504,48.988800000000005,54.354240000000004,220.84704000000005,"
    "130.4\n"
    "floodpisync,145,9,27,3.1320000000000006,48.988800000000005,54.354240000000004,"
    "106.47504000000002,16.1\n"
)


def test_energy_table_contents(capsys):
    code, out, _ = run_cli(["energy"], capsys)
    assert code == 0
    # the payloads are the wire codec's, framed by HEADER_FOOTER_BYTES
    assert out == ENERGY_TABLE
    lines = out.strip().split("\n")
    assert "quoted_total_uJ_unverified" in lines[0]
    rows = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert set(rows) == {"tsau", "uaf", "baf", "ftsp", "floodpisync"}
    assert rows["ftsp"].split(",")[1] == "5440"
    # computed TSAU cpu term
    assert float(rows["tsau"].split(",")[4]) == pytest.approx(3.0456, rel=1e-12)
    # the quoted total is displayed, not reproduced
    assert float(rows["tsau"].split(",")[8]) == 14.53


def test_console_entry_point():
    # the child imports the same dipsync as this process, installed or not
    env = dict(os.environ)
    package_root = str(Path(dipsync.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dipsync.cli", "energy"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("protocol,")
