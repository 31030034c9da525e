"""Experiment runner: standard runs from spec files, the link-availability
sweep, protocol comparisons on the canonical scenarios, and the energy table.

All outputs are UTF-8 CSV.  Every run is deterministic given its spec; the
DIPSYNC_SEED environment variable overrides the spec's seed.  `sweep-links`
and `compare` take their seed from --seed only.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import statistics
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from ._forkmap import fork_map, usable_cpus
from .engine import (
    CsvBlocks,
    SimConfig,
    config_from_mapping,
    current_backend,
    episode_bytes,
    episode_cost,
    parse_int,
    parse_keyvalue_file,
    physical_memory,
    run,
    writing_output,
)
from .errors import ConfigError, EpisodeAborted
from .metrics import (
    HEADER_FOOTER_BYTES,
    PROTOCOL_ENERGY_CONSTANTS,
    QUOTED_TOTALS_UJ,
    DipMetrics,
    dip_metrics,
    summary_table,
    total_energy,
)
from .protocol import ProtocolKind
from .topology import make_grid, make_line

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    config: SimConfig
    repeat: int = 1


def repeat_seed(base: int, rep: int) -> int:
    """Deterministic per-repeat seed derivation (documented label scheme)."""
    return base if rep == 0 else base * 1000003 + rep


def load_spec(path) -> ExperimentSpec:
    fields = parse_keyvalue_file(path)
    name = fields.pop("name", Path(path).stem)
    if not _NAME_RE.match(name):
        raise ConfigError(f"experiment name {name!r} is not filesystem-safe")
    repeat = parse_int("repeat", fields.pop("repeat", "1"))
    if repeat < 1:
        raise ConfigError("repeat must be >= 1")
    raw_seed = os.environ.get("DIPSYNC_SEED")
    if raw_seed is not None:
        fields["seed"] = parse_int("DIPSYNC_SEED", raw_seed)
    return ExperimentSpec(name=name, config=config_from_mapping(fields), repeat=repeat)


def resolve_spec_path(arg: str) -> str:
    """A path on disk, or the name of a bundled spec (data/<name>.spec)."""
    if os.path.exists(arg):
        return arg
    bundled = resources.files("dipsync").joinpath(f"data/{arg}.spec")
    if bundled.is_file():
        return str(bundled)
    raise ConfigError(f"spec {arg!r}: no such file or bundled spec")


def scenario_config(name: str, protocol: ProtocolKind, seed: int, max_ticks: int) -> SimConfig:
    if name == "grid16":
        return SimConfig(topology=make_grid(4, 4), protocol=protocol, seed=seed,
                         max_ticks=max_ticks, freeze_on_dip=False)
    if name == "line16":
        return SimConfig(topology=make_line(16), protocol=protocol, seed=seed,
                         max_ticks=max_ticks, freeze_on_dip=False)
    if name == "malicious16":
        return SimConfig(topology=make_grid(4, 4), protocol=protocol, seed=seed,
                         max_ticks=max_ticks, malicious=True, freeze_on_dip=True)
    raise ConfigError(f"unknown scenario {name!r} (grid16, line16, malicious16)")


def _write_text(path, text: str) -> None:
    """Write `text` as UTF-8 to the output file at `path`."""
    with writing_output(path):
        Path(path).write_text(text, encoding="utf-8")


def _write_manifest(path, spec: ExperimentSpec, seeds) -> None:
    cfg = spec.config
    lines = [
        f"name = {spec.name}",
        f"protocol = {cfg.protocol.value}",
        f"nodes = {cfg.topology.node_count}",
        f"edges = {len(cfg.topology.edges)}",
        "gateway = 0",
        f"delta = {cfg.delta!r}",
        f"max_ticks = {cfg.max_ticks}",
        f"link_p = {cfg.link_p!r}",
        f"malicious = {str(cfg.malicious).lower()}",
        f"seed = {cfg.seed}",
        f"freeze_on_dip = {str(cfg.freeze_on_dip).lower()}",
        f"repeat = {spec.repeat}",
        f"repeat_seeds = {','.join(str(s) for s in seeds)}",
        f"kernel_backend = {current_backend()}",
        f"dipsync_version = {__version__}",
    ]
    _write_text(path, "\n".join(lines) + "\n")


def _metrics_csv(path, results: list[tuple[int, DipMetrics]]) -> None:
    lines = ["metric,node,value"]
    for seed, dm in results:
        tag = f"seed{seed}:" if len(results) > 1 else ""
        for idx, node in enumerate(range(1, len(dm.e_dip) + 1)):
            lines.append(f"{tag}k_dip,{node},{dm.k_dip[idx]!r}")
            lines.append(f"{tag}e_dip,{node},{dm.e_dip[idx]!r}")
        lines.append(f"{tag}E_dip_min,,{dm.e_dip_min!r}")
        lines.append(f"{tag}k_dip_min,,{dm.k_dip_min!r}")
        lines.append(f"{tag}V_k_dip,,{dm.v_k_dip!r}")
    if len(results) > 1:
        for field in ("e_dip_min", "k_dip_min", "v_k_dip"):
            vals = sorted(getattr(dm, field) for _, dm in results)
            med = statistics.median(vals)
            lines.append(f"median_{field},,{med!r}")
            lines.append(f"min_{field},,{vals[0]!r}")
            lines.append(f"max_{field},,{vals[-1]!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _map_episodes(fn, configs: list[SimConfig]) -> list:
    """`[fn(c) for c in configs]` through `fork_map`, with one worker per
    usable CPU, at most one per config, and no more workers than the largest
    episode's `episode_bytes` fit in physical memory.  The episodes are
    shared out longest first by their `episode_cost`."""
    fits = physical_memory() // max([1, *map(episode_bytes, configs)])
    return fork_map(fn, configs, max(1, min(len(configs), usable_cpus(), fits)),
                    cost=episode_cost)


def _episode_metrics(config: SimConfig) -> DipMetrics:
    """The dip metrics of `config`'s episode, which ends once they are
    decided (`run`'s `until_decided`)."""
    return dip_metrics(run(config, until_decided=True))


def cmd_run(args) -> int:
    spec = load_spec(resolve_spec_path(args.spec))
    out_dir = Path(args.out)
    seeds = [repeat_seed(spec.config.seed, r) for r in range(spec.repeat)]
    results = []
    for rep, seed in enumerate(seeds):
        # the trace CSV's leading blocks are formatted while the kernel runs;
        # leaving the block ends every writer still running
        with CsvBlocks() as blocks:
            trace = run(dataclasses.replace(spec.config, seed=seed), csv_blocks=blocks)
            # created only now, so a rejected spec or an aborted episode
            # leaves no empty directory behind
            with writing_output(out_dir):
                out_dir.mkdir(parents=True, exist_ok=True)
            name = "trace.csv" if spec.repeat == 1 else f"trace_r{rep}.csv"
            trace.to_csv(out_dir / name)
        results.append((seed, dip_metrics(trace)))
    _metrics_csv(out_dir / "metrics.csv", results)
    _write_manifest(out_dir / "manifest.txt", spec, seeds)
    print(f"wrote {out_dir}/trace*.csv, metrics.csv, manifest.txt")
    return 0


def cmd_sweep_links(args) -> int:
    if not args.p:
        raise ConfigError("empty probability list")
    for p in args.p:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"probability {p} outside [0, 1]")
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    protocol = ProtocolKind.parse(args.protocol)
    topo = make_grid(4, 4)
    configs = [SimConfig(topology=topo, protocol=protocol, link_p=p,
                         seed=repeat_seed(args.seed, r), max_ticks=args.ticks,
                         freeze_on_dip=False)
               for p in args.p for r in range(args.repeats)]
    metrics = _map_episodes(_episode_metrics, configs)
    lines = ["p,median_E_dip_min,min_E_dip_min,max_E_dip_min,median_k_dip_min,dip_persists"]
    for n, p in enumerate(args.p):
        dms = metrics[n * args.repeats:(n + 1) * args.repeats]
        e_vals = sorted(dm.e_dip_min for dm in dms)
        k_vals = [dm.k_dip_min for dm in dms]
        med_node = np.median(np.array([dm.e_dip for dm in dms]), axis=0)
        persists = bool((med_node >= 1e-5).all() and (med_node <= 1e-2).all())
        lines.append(
            f"{p!r},{statistics.median(e_vals)!r},{e_vals[0]!r},{e_vals[-1]!r},"
            f"{statistics.median(k_vals)!r},{str(persists).lower()}"
        )
    out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    if args.out:
        _write_text(args.out, out)
    return 0


_ORDER_CHECKS = {
    "grid16": [
        ("uaf_lowest_variance", lambda m: m["uaf"].v_k_dip <= min(v.v_k_dip for v in m.values())),
        ("baf_lowest_error", lambda m: m["baf"].e_dip_min <= min(v.e_dip_min for v in m.values())),
    ],
    "malicious16": [
        ("baf_variance_dominates",
         lambda m: m["baf"].v_k_dip > 10 * max(m["tsau"].v_k_dip, m["uaf"].v_k_dip)),
        ("uaf_slowest",
         lambda m: m["uaf"].k_dip_min > max(m["tsau"].k_dip_min, m["baf"].k_dip_min)),
    ],
}


def cmd_compare(args) -> int:
    # each distinct protocol runs once, in order of first mention
    protocols = list(dict.fromkeys(ProtocolKind.parse(p) for p in args.protocols))
    configs = [scenario_config(args.scenario, proto, args.seed, args.ticks)
               for proto in protocols]
    metrics = _map_episodes(_episode_metrics, configs)
    results = dict(zip((proto.value for proto in protocols), metrics))
    sys.stdout.write(summary_table(list(results.items())))
    # the order checks rank tsau, uaf and baf against each other only
    checked = {name: results[name] for name in ("tsau", "uaf", "baf") if name in results}
    if len(checked) == 3:
        for name, check in _ORDER_CHECKS.get(args.scenario, []):
            verdict = "PASS" if check(checked) else "FAIL"
            print(f"check {name}: {verdict}")
    return 0


def cmd_energy(args) -> int:
    lines = ["protocol,cpu_ticks,payload_bytes,packet_bytes,cpu_uJ,tx_uJ,rx_uJ,"
             "total_uJ,quoted_total_uJ_unverified"]
    for name, (cpu_ticks, payload) in PROTOCOL_ENERGY_CONSTANTS.items():
        rep = total_energy(cpu_ticks, payload)
        quoted = QUOTED_TOTALS_UJ[name]
        lines.append(
            f"{name},{cpu_ticks},{payload},{payload + HEADER_FOOTER_BYTES},"
            f"{rep.cpu_energy * 1e6!r},{rep.tx_energy * 1e6!r},{rep.rx_energy * 1e6!r},"
            f"{rep.total * 1e6!r},{quoted!r}"
        )
    out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    if args.out:
        _write_text(args.out, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dipsync", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", help="path to a spec file or a bundled spec name")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.set_defaults(func=cmd_run)

    p_sw = sub.add_parser("sweep-links", help="link-availability sweep on the 16-node grid")
    p_sw.add_argument("--protocol", required=True)
    p_sw.add_argument("--p", type=float, nargs="+", default=[])
    p_sw.add_argument("--seed", type=int, default=1)
    p_sw.add_argument("--repeats", type=int, default=11)
    p_sw.add_argument("--ticks", type=int, default=16000)
    p_sw.add_argument("--out")
    p_sw.set_defaults(func=cmd_sweep_links)

    p_cmp = sub.add_parser("compare", help="compare protocols on a canonical scenario")
    p_cmp.add_argument("--scenario", required=True, choices=["grid16", "line16", "malicious16"])
    p_cmp.add_argument("--protocols", nargs="+", default=["tsau", "uaf", "baf"])
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.add_argument("--ticks", type=int, default=4000)
    p_cmp.set_defaults(func=cmd_compare)

    p_en = sub.add_parser("energy", help="per-message energy table")
    p_en.add_argument("--out")
    p_en.set_defaults(func=cmd_energy)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EpisodeAborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
