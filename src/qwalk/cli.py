"""Command-line front end: configure runs, compare against theory, emit reports.

Subcommands
    jeong    event-by-event mesh walk; per-site counts next to exact values
    robens   four-jump polarized walk with optional taps / removal at t2
    lgi      both Leggett-Garg protocols with replicate error bars
    oracle   exact theory only (no simulation)
    compare  DES vs theory difference report for either network

Site reports use the CSV header ``site,count,frequency,oracle_probability``
(for ``oracle`` the count/frequency columns are zero) or a JSON document
``{config, results, metrics}``.  The seed resolves from --seed, then the
QWALK_SEED environment variable, then a fixed default, so documented
invocations are reproducible; ``--seed random`` opts into a fresh seed.
Identical configurations produce byte-identical outputs; files are written
atomically (write-then-rename).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, replace

from .errors import EmptyRun, QwalkError
from .core import RngStream, _INV_SQRT2
from .leggett_garg import SINGLE_RUN, THREE_RUN, run_protocols
from .network import MAX_LEVELS, RemovalFilter, build_jeong, build_robens, run
from .theory import (
    DOWN,
    MAX_ORACLE_STEPS,
    StateVector,
    UP,
    hadamard_walk,
    jeong_evolve,
    table1_closed_form,
    total_variation,
)

DEFAULT_SEED = 123456789
CSV_HEADER = "site,count,frequency,oracle_probability"
LGI_CSV_HEADER = "protocol,K,stderr,q3_mean,q3q2_mean,p_plus,p_minus,replicates,verdict"


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """One resolved invocation; the field defaults are the CLI's defaults."""

    mode: str
    seed: int
    steps: int = 4
    phi1: float = math.pi / 2
    phi2: float = -math.pi / 2
    particles: int = 100_000
    gamma: float = 0.95
    replicates: int = 1
    removal: str = "none"
    taps: bool = False
    format: str = "csv"
    walk: str | None = None
    network: str | None = None

    def validate(self) -> None:
        if self.particles < 1:
            raise ConfigError(f"particles must be >= 1, got {self.particles}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        mesh_bound = MAX_ORACLE_STEPS if self.mode == "oracle" else MAX_LEVELS
        runs_mesh = (self.mode in ("jeong", "oracle")
                     or (self.mode == "compare" and self.network == "jeong"))
        if runs_mesh and self.walk != "hadamard" and self.steps > mesh_bound:
            raise ConfigError(
                f"steps must be <= {mesh_bound} for this mode, got {self.steps}")


def _resolve_seed(raw: str | None) -> int:
    if raw is None:
        raw = os.environ.get("QWALK_SEED")
    if raw is None:
        return DEFAULT_SEED
    if raw == "random":
        return int.from_bytes(os.urandom(8), "little")
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer or 'random', got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Event-by-event quantum-walk simulator with exact theory reference.")
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p: argparse.ArgumentParser,
                   replicates_default=RunConfig.replicates) -> None:
        p.add_argument("--particles", type=int, default=RunConfig.particles,
                       help="particles per run (default %(default)s)")
        p.add_argument("--gamma", type=float, default=RunConfig.gamma,
                       help="learning rate of the adaptive units, in [0,1) "
                            "(default %(default)s; 0 gives the classical walk)")
        p.add_argument("--seed", default=None,
                       help="integer seed or 'random' (default: $QWALK_SEED, "
                            f"else {DEFAULT_SEED})")
        p.add_argument("--replicates", type=int, default=replicates_default,
                       help="independent replicate runs (default %(default)s)")
        p.add_argument("--format", choices=("csv", "json"),
                       default=RunConfig.format)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_mesh_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--steps", type=int, default=RunConfig.steps,
                       help="walk steps / mesh levels (default %(default)s)")
        p.add_argument("--phi1", type=float, default=RunConfig.phi1,
                       help="phase on the up input rail (default pi/2)")
        p.add_argument("--phi2", type=float, default=RunConfig.phi2,
                       help="phase on the down output rail (default -pi/2)")

    p = sub.add_parser("jeong", help="beam-splitter mesh walk vs exact theory")
    add_mesh_params(p)
    add_common(p)

    p = sub.add_parser("robens", help="four-jump polarized walk")
    p.add_argument("--removal", choices=("none", "plus", "minus"),
                   default=RunConfig.removal,
                   help="negative measurement at t2: 'minus' keeps the x2=-1 "
                        "branch (absorbs the +1 rail), 'plus' keeps x2=+1")
    p.add_argument("--taps", action="store_true",
                   help="record non-invasive t1/t2/t3 observations and emit "
                        "the t2-partitioned sub-distributions")
    add_common(p)

    p = sub.add_parser("lgi", help="Leggett-Garg K for both protocols")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel replicate processes, >= 1; capped at the "
                        "replicate count (default: cpu count)")
    add_common(p, replicates_default=10)

    p = sub.add_parser("oracle", help="exact theory, no simulation")
    add_mesh_params(p)
    p.add_argument("--walk", choices=("jeong", "hadamard"), default="jeong",
                   help="which evolution to evaluate (default %(default)s)")
    add_common(p)

    p = sub.add_parser("compare", help="DES vs theory difference report")
    p.add_argument("--network", choices=("jeong", "robens"), default="jeong")
    add_mesh_params(p)
    add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The subcommand's options; a field it has no option for keeps its default."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    given["seed"] = _resolve_seed(args.seed)
    cfg = RunConfig(**given)
    cfg.validate()
    return cfg


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    if cfg.walk is None:
        echo.pop("walk")
    if cfg.network is None:
        echo.pop("network")
    return echo


def _site_rows(counts: dict[int, int], emitted: int,
               oracle: dict[int, float]) -> list[dict]:
    sites = sorted(set(counts) | set(oracle))
    return [{
        "site": x,
        "count": counts.get(x, 0),
        "frequency": counts.get(x, 0) / emitted if emitted else 0.0,
        "oracle_probability": oracle.get(x, 0.0),
    } for x in sites]


def _site_metrics(rows: list[dict]) -> dict:
    freq = {r["site"]: r["frequency"] for r in rows}
    prob = {r["site"]: r["oracle_probability"] for r in rows}
    return {
        "total_variation": total_variation(freq, prob),
        "max_abs_site_error": max(
            (abs(r["frequency"] - r["oracle_probability"]) for r in rows),
            default=0.0),
    }


def _csv_sites(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r['site']},{r['count']},{r['frequency']!r},"
                     f"{r['oracle_probability']!r}")
    return "\n".join(lines) + "\n"


def _robens_oracle(removal: str) -> dict[int, float]:
    if removal == "minus":  # x2=-1 branch kept: conditioned state at (-1, up)
        _, probs = hadamard_walk(3, StateVector.basis(-1, UP, _INV_SQRT2))
    elif removal == "plus":
        _, probs = hadamard_walk(3, StateVector.basis(+1, DOWN, _INV_SQRT2))
    else:
        _, probs = hadamard_walk(4, StateVector.basis(0, UP))
    return probs


def _merge_counts(target: dict[int, int], extra: dict[int, int]) -> None:
    for site, count in extra.items():
        target[site] = target.get(site, 0) + count


def cmd_jeong(cfg: RunConfig) -> tuple[dict, str]:
    net = build_jeong(cfg.steps, cfg.phi1, cfg.phi2, cfg.gamma)
    rng = RngStream(cfg.seed)
    counts: dict[int, int] = {s: 0 for s in net.detector_sites}
    for r in range(cfg.replicates):
        result = run(net, cfg.particles, rng.derive(r))
        _merge_counts(counts, result.counts)
    emitted = cfg.particles * cfg.replicates
    oracle = jeong_evolve(cfg.steps, cfg.phi1, cfg.phi2)[-1]
    rows = _site_rows(counts, emitted, oracle)
    report = {
        "config": _config_echo(cfg),
        "results": {"sites": rows, "emitted": emitted},
        "metrics": _site_metrics(rows),
    }
    return report, _csv_sites(rows)


def cmd_robens(cfg: RunConfig) -> tuple[dict, str]:
    net = build_robens(cfg.gamma)
    rng = RngStream(cfg.seed)
    filters = []
    if cfg.removal == "minus":
        filters = [RemovalFilter("t2", +1)]
    elif cfg.removal == "plus":
        filters = [RemovalFilter("t2", -1)]
    counts: dict[int, int] = {s: 0 for s in net.detector_sites}
    t2: dict[int, dict[int, int]] = {-1: {}, +1: {}}
    removed = 0
    for r in range(cfg.replicates):
        result = run(net, cfg.particles, rng.derive(r), filters=filters,
                     taps_enabled=cfg.taps)
        _merge_counts(counts, result.counts)
        removed += result.removed
        for x2, row in result.t2.items():
            _merge_counts(t2[x2], row)
    emitted = cfg.particles * cfg.replicates
    oracle = _robens_oracle(cfg.removal)
    rows = _site_rows(counts, emitted, oracle)
    results: dict = {"sites": rows, "emitted": emitted, "removed": removed}
    if cfg.taps:
        results["panels"] = {
            name: [{"site": x, "count": c, "frequency": c / emitted}
                   for x, c in sorted(t2[x2].items())]
            for name, x2 in (("t2_minus", -1), ("t2_plus", +1))}
    report = {
        "config": _config_echo(cfg),
        "results": results,
        "metrics": _site_metrics(rows),
    }
    return report, _csv_sites(rows)


def cmd_oracle(cfg: RunConfig) -> tuple[dict, str]:
    if cfg.walk == "hadamard":
        _, probs = hadamard_walk(cfg.steps, StateVector.basis(0, UP))
    else:
        probs = jeong_evolve(cfg.steps, cfg.phi1, cfg.phi2)[-1]
    rows = [{"site": x, "count": 0, "frequency": 0.0, "oracle_probability": p}
            for x, p in sorted(probs.items())]
    metrics: dict = {"probability_sum": sum(probs.values())}
    if cfg.walk == "jeong" and cfg.steps <= 5:
        closed = table1_closed_form(cfg.steps, cfg.phi2)
        metrics["closed_form_max_abs_diff"] = max(
            abs(probs.get(x, 0.0) - closed.get(x, 0.0))
            for x in set(probs) | set(closed))
    report = {
        "config": _config_echo(cfg),
        "results": {"sites": rows},
        "metrics": metrics,
    }
    return report, _csv_sites(rows)


def cmd_compare(cfg: RunConfig) -> tuple[dict, str]:
    if cfg.network == "robens":
        report, csv_text = cmd_robens(
            replace(cfg, mode="robens", network=None, removal="none"))
    else:
        report, csv_text = cmd_jeong(replace(cfg, mode="jeong", network=None))
    report["config"] = _config_echo(cfg)
    rows = report["results"]["sites"]
    report["results"]["abs_errors"] = [
        {"site": r["site"],
         "abs_error": abs(r["frequency"] - r["oracle_probability"])}
        for r in rows]
    return report, csv_text


def _verdict(k: float, stderr: float) -> str:
    return "violation" if k - 1.0 > 3.0 * stderr else "no_violation"


def _excess_in_stderr(k: float, stderr: float) -> float:
    """(K - 1) / stderr; with a zero stderr, a signed infinity or 0.0 for K = 1."""
    if stderr > 0:
        return (k - 1.0) / stderr
    if k == 1.0:
        return 0.0
    return math.copysign(math.inf, k - 1.0)


def cmd_lgi(cfg: RunConfig, workers: int | None) -> tuple[dict, str]:
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if cfg.replicates < 2:
        raise ConfigError(
            f"lgi needs at least 2 replicates for error bars, got {cfg.replicates}")
    rng = RngStream(cfg.seed)
    protocols = (THREE_RUN, SINGLE_RUN)
    try:
        outcomes = run_protocols(
            [(protocol, rng.derive(index)) for index, protocol in enumerate(protocols)],
            particles=cfg.particles, gamma=cfg.gamma, replicates=cfg.replicates,
            workers=workers)
    except EmptyRun as exc:
        # too few particles leave a branch or a run with no counts; the
        # message starts with the protocol
        raise ConfigError(
            f"--particles {cfg.particles} is too few for {exc}") from exc
    rows = []
    results: dict = {}
    for protocol, (aggregate, reps) in zip(protocols, outcomes):
        verdict = _verdict(aggregate.k, aggregate.stderr)
        comp = aggregate.components
        rows.append({
            "protocol": protocol, "K": aggregate.k, "stderr": aggregate.stderr,
            "q3_mean": comp.q3_mean, "q3q2_mean": comp.q3q2_mean,
            "p_plus": comp.p_plus, "p_minus": comp.p_minus,
            "replicates": aggregate.replicates, "verdict": verdict,
        })
        results[protocol] = {
            "K": aggregate.k, "stderr": aggregate.stderr,
            "components": asdict(comp),
            "per_replicate_K": [r.k for r in reps],
            "verdict": verdict,
        }
        sigmas = _excess_in_stderr(aggregate.k, aggregate.stderr)
        print(f"{protocol}: K = {aggregate.k:.4f} +- {aggregate.stderr:.4f}  "
              f"-> {verdict} (K - 1 = {sigmas:+.1f} stderr)", file=sys.stderr)
    report = {
        "config": _config_echo(cfg),
        "results": results,
        "metrics": {"verdicts": {r["protocol"]: r["verdict"] for r in rows}},
    }
    lines = [LGI_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['protocol']},{r['K']!r},{r['stderr']!r},{r['q3_mean']!r},"
            f"{r['q3q2_mean']!r},{r['p_plus']!r},{r['p_minus']!r},"
            f"{r['replicates']},{r['verdict']}")
    return report, "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qwalk-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.mode == "jeong":
            report, csv_text = cmd_jeong(cfg)
        elif cfg.mode == "robens":
            report, csv_text = cmd_robens(cfg)
        elif cfg.mode == "oracle":
            report, csv_text = cmd_oracle(cfg)
        elif cfg.mode == "compare":
            report, csv_text = cmd_compare(cfg)
        else:
            report, csv_text = cmd_lgi(cfg, getattr(args, "workers", None))
    except ConfigError as exc:
        print(f"qwalk: configuration error: {exc}", file=sys.stderr)
        return 2
    except (QwalkError, AssertionError) as exc:
        print(f"qwalk: internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"qwalk: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if cfg.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = csv_text
    out = getattr(args, "out", None)
    try:
        _write_output(text, out)
    except OSError as exc:
        print(f"qwalk: cannot write {out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
