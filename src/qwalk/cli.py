"""Command-line front end: configure runs, compare against theory, emit reports.

Subcommands
    jeong    event-by-event mesh walk; per-site counts next to exact values
    robens   four-jump polarized walk with optional taps / removal at t2
    lgi      both Leggett-Garg protocols with replicate error bars
    oracle   exact theory only (no simulation)
    compare  DES vs theory difference report for either network

Site reports use the CSV header ``site,count,frequency,oracle_probability``
(for ``oracle`` the count/frequency columns are zero).  Each command returns
its results, metrics and CSV text; ``main`` assembles every JSON document
``{config, results, metrics}`` from them, and a CSV job builds no JSON.
The site commands share one replicate loop and one row builder.  The seed
resolves from --seed, then the QWALK_SEED environment variable, then a fixed
default, so documented invocations are reproducible; ``--seed random`` opts
into a fresh seed.
Identical configurations produce byte-identical outputs; files are written
atomically (write-then-rename).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import Counter
from typing import NamedTuple

from .errors import (DegenerateAmplitude, EmptyRun, InsufficientReplicates,
                     QwalkError)
from .core import RngStream
from .leggett_garg import SINGLE_RUN, THREE_RUN, run_protocols, t3_probabilities
from .network import (MAX_LEVELS, RemovalFilter, _MAX_PARTICLES, _compiled,
                      build_jeong, build_robens, run)
from .theory import (
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


class RunConfig(NamedTuple):
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
        if not 1 <= self.particles <= _MAX_PARTICLES:
            raise ConfigError(f"particles must be in 1..{_MAX_PARTICLES}, "
                              f"got {self.particles}")
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
        # a command that walks no mesh takes no --steps (see IGNORED)
        mesh_bound = MAX_ORACLE_STEPS if self.mode == "oracle" else MAX_LEVELS
        if self.walk != "hadamard" and self.steps > mesh_bound:
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


class _Parser(argparse.ArgumentParser):
    """A parser, and the subcommands' parsers, that report bad input on one line."""

    def error(self, message: str):
        self.exit(2, f"qwalk: usage error: {message} (see '{self.prog} --help')\n")


#: each subcommand: its help line and its options, in --help order
COMMANDS = {
    "jeong": ("beam-splitter mesh walk vs exact theory",
              "steps phi1 phi2 particles gamma seed replicates format out"),
    "robens": ("four-jump polarized walk",
               "removal taps particles gamma seed replicates format out"),
    "lgi": ("Leggett-Garg K for both protocols",
            "workers particles gamma seed replicates format out"),
    "oracle": ("exact theory, no simulation",
               "steps phi1 phi2 walk seed format out"),
    "compare": ("DES vs theory difference report", "network steps phi1 phi2 "
                "particles gamma seed replicates format out"),
}

#: per command, the option and choice of a walk, and the mesh options it ignores
IGNORED = {"compare": ("network", "robens", ("steps", "phi1", "phi2")),
           "oracle": ("walk", "hadamard", ("phi1", "phi2"))}

#: each option's add_argument keywords, by default RunConfig's default; a mesh
#: option sets no value unless given, so a walk that ignores it can refuse it
OPTIONS = {
    "steps": dict(type=int, default=argparse.SUPPRESS,
                  help="walk steps / mesh levels "
                       f"(default {RunConfig._field_defaults['steps']})"),
    "phi1": dict(type=float, default=argparse.SUPPRESS,
                 help="phase on the up input rail (default pi/2)"),
    "phi2": dict(type=float, default=argparse.SUPPRESS,
                 help="phase on the down output rail (default -pi/2)"),
    "particles": dict(type=int, help="particles per run (default %(default)s)"),
    "gamma": dict(type=float, help="learning rate of the adaptive units, in "
                  "[0,1) (default %(default)s; 0 gives the classical walk)"),
    "seed": dict(help="integer seed or 'random' (default: $QWALK_SEED, "
                      f"else {DEFAULT_SEED})"),
    "replicates": dict(type=int,
                       help="independent replicate runs (default %(default)s)"),
    "format": dict(choices=("csv", "json")),
    "out": dict(help="output path (default stdout)"),
    "removal": dict(choices=("none", "plus", "minus"),
                    help="negative measurement at t2: 'minus' keeps the x2=-1 "
                         "branch (absorbs the +1 rail), 'plus' keeps x2=+1"),
    "taps": dict(action="store_true", help="tally each detection by the t2 "
                 "site the particle crossed, without touching it, and add the "
                 "t2-partitioned sub-distributions to the JSON panels"),
    "workers": dict(type=int, help="most replicate threads, >= 1; capped at "
                    "the replicate count and at the CPUs this process may "
                    "run on (the default); without a C compiler the "
                    "threads take turns, so more buy nothing"),
    "walk": dict(choices=("jeong", "hadamard"), default="jeong",
                 help="which evolution to evaluate (default %(default)s)"),
    "network": dict(choices=("jeong", "robens"), default="jeong"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main``."""
    parser = _Parser(
        prog="qwalk",
        description="Event-by-event quantum-walk simulator with exact theory reference.")
    sub = parser.add_subparsers(dest="mode", required=True)
    defaults = RunConfig._field_defaults
    for mode, (help_line, options) in COMMANDS.items():
        p = sub.add_parser(mode, help=help_line)
        p.set_defaults(command_parser=p)  # names its own help in a usage error
        for name in options.split():
            p.add_argument(f"--{name}", **{"default": defaults.get(name),
                                           **OPTIONS[name]})
    sub.choices["lgi"].set_defaults(replicates=10)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The subcommand's options; a field they set no value for keeps its default."""
    given = {name: getattr(args, name) for name in RunConfig._fields
             if hasattr(args, name)}
    flag, walk, ignored = IGNORED.get(args.mode, (None, None, ()))
    refused = [f"--{name}" for name in ignored if name in given]
    if refused and given[flag] == walk:
        raise ConfigError(f"{refused[0]} does not apply to {args.mode} --{flag} {walk}")
    given["seed"] = _resolve_seed(args.seed)
    cfg = RunConfig(**given)
    cfg.validate()
    return cfg


def _config_echo(cfg: RunConfig) -> dict:
    # walk and network, the only fields that can be None, echo only when set
    return {name: value for name, value in cfg._asdict().items()
            if value is not None}


def _site_report(counts: dict[int, int], emitted: int, oracle: dict[int, float],
                 /, **extra) -> tuple[dict, dict, str]:
    """Results, metrics and CSV of detector counts next to exact probabilities.

    The results hold one row per site and ``extra``.  A run's report adds
    the particles it emitted, and metrics of its frequencies' distance to
    the oracle.  The oracle command emits none: its counts and frequencies
    are zero, and it adds its own metrics.
    """
    rows = [{
        "site": x,
        "count": counts.get(x, 0),
        "frequency": counts.get(x, 0) / emitted if emitted else 0.0,
        "oracle_probability": oracle.get(x, 0.0),
    } for x in sorted(set(counts) | set(oracle))]
    results: dict = {"sites": rows, **extra}
    metrics: dict = {}
    if emitted:
        results["emitted"] = emitted
        metrics["total_variation"] = total_variation(
            {r["site"]: r["frequency"] for r in rows},
            {r["site"]: r["oracle_probability"] for r in rows})
        metrics["max_abs_site_error"] = max(
            (abs(r["frequency"] - r["oracle_probability"]) for r in rows),
            default=0.0)
    lines = [CSV_HEADER] + [
        f"{r['site']},{r['count']},{r['frequency']!r},{r['oracle_probability']!r}"
        for r in rows]
    return results, metrics, "\n".join(lines) + "\n"


def _replicates(cfg: RunConfig, net, **options) -> tuple[Counter, dict, int]:
    """Counts, t2 table and removed tally summed over the replicate runs."""
    rng = RngStream(cfg.seed)
    counts: Counter = Counter()
    t2 = {-1: Counter(), +1: Counter()}
    removed = 0
    for r in range(cfg.replicates):
        result = run(net, cfg.particles, rng.derive(r), **options)
        counts.update(result.counts)
        for x2, row in result.t2.items():
            t2[x2].update(row)
        removed += result.removed
    return counts, t2, removed


def cmd_jeong(cfg: RunConfig) -> tuple[dict, dict, str]:
    net = _compiled(build_jeong, cfg.steps, cfg.phi1, cfg.phi2, cfg.gamma)
    counts, _t2, _removed = _replicates(cfg, net)
    oracle = _compiled(jeong_evolve, cfg.steps, cfg.phi1, cfg.phi2)[-1]
    return _site_report(counts, cfg.particles * cfg.replicates, oracle)


def cmd_robens(cfg: RunConfig) -> tuple[dict, dict, str]:
    net = _compiled(build_robens, cfg.gamma)
    # the branch x2 that the negative measurement at t2 keeps; it absorbs
    # the other rail
    kept = {"none": None, "minus": -1, "plus": +1}[cfg.removal]
    filters = [] if kept is None else [RemovalFilter("t2", -kept)]
    counts, t2, removed = _replicates(cfg, net, filters=filters,
                                      taps_enabled=cfg.taps)
    oracle = t3_probabilities(kept)
    emitted = cfg.particles * cfg.replicates
    extra: dict = {"removed": removed}
    if cfg.taps:
        extra["panels"] = {
            name: [{"site": x, "count": c, "frequency": c / emitted}
                   for x, c in sorted(t2[x2].items())]
            for name, x2 in (("t2_minus", -1), ("t2_plus", +1))}
    return _site_report(counts, emitted, oracle, **extra)


def cmd_oracle(cfg: RunConfig) -> tuple[dict, dict, str]:
    if cfg.walk == "hadamard":
        _, probs = hadamard_walk(cfg.steps, StateVector.basis(0, UP))
    else:
        probs = _compiled(jeong_evolve, cfg.steps, cfg.phi1, cfg.phi2)[-1]
    results, metrics, csv_text = _site_report({}, 0, probs)
    metrics["probability_sum"] = sum(probs.values())
    if cfg.walk == "jeong" and cfg.steps <= 5:
        closed = table1_closed_form(cfg.steps, cfg.phi2)
        metrics["closed_form_max_abs_diff"] = max(
            abs(probs.get(x, 0.0) - closed.get(x, 0.0))
            for x in set(probs) | set(closed))
    return results, metrics, csv_text


def cmd_compare(cfg: RunConfig) -> tuple[dict, dict, str]:
    # compare has no --removal or --taps, so robens runs its plain network
    command = cmd_robens if cfg.network == "robens" else cmd_jeong
    results, metrics, csv_text = command(cfg)
    results["abs_errors"] = [
        {"site": r["site"],
         "abs_error": abs(r["frequency"] - r["oracle_probability"])}
        for r in results["sites"]]
    return results, metrics, csv_text


def _verdict(k: float, stderr: float) -> str:
    return "violation" if k - 1.0 > 3.0 * stderr else "no_violation"


def _excess_in_stderr(k: float, stderr: float) -> float:
    """(K - 1) / stderr; with a zero stderr, a signed infinity or 0.0 for K = 1."""
    if stderr > 0:
        return (k - 1.0) / stderr
    if k == 1.0:
        return 0.0
    return math.copysign(math.inf, k - 1.0)


def cmd_lgi(cfg: RunConfig, workers: int | None) -> tuple[dict, dict, str]:
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
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
    except InsufficientReplicates as exc:
        # raised before any replicate runs: error bars need two of them
        raise ConfigError(f"lgi: {exc}") from exc
    lines = [LGI_CSV_HEADER]
    results: dict = {}
    for protocol, (aggregate, reps) in zip(protocols, outcomes):
        k, stderr, comp = aggregate.k, aggregate.stderr, aggregate.components
        verdict = _verdict(k, stderr)
        lines.append(f"{protocol},{k!r},{stderr!r},{comp.q3_mean!r},"
                     f"{comp.q3q2_mean!r},{comp.p_plus!r},{comp.p_minus!r},"
                     f"{aggregate.replicates},{verdict}")
        results[protocol] = {
            "K": k, "stderr": stderr,
            "components": comp._asdict(),
            "per_replicate_K": [r.k for r in reps],
            "verdict": verdict,
        }
        sigmas = _excess_in_stderr(k, stderr)
        print(f"{protocol}: K = {k:.4f} +- {stderr:.4f}  "
              f"-> {verdict} (K - 1 = {sigmas:+.1f} stderr)", file=sys.stderr)
    metrics = {"verdicts": {p: r["verdict"] for p, r in results.items()}}
    return results, metrics, "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # the temp file gets the mode open(out, "w") would give: the umask's for
    # a new file, the old mode for a file being overwritten
    try:
        mode = os.stat(out).st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    directory = os.path.dirname(out) or os.curdir
    tmp = os.path.join(directory, f".qwalk-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    """Run one ``qwalk`` command line; returns its exit code.

    Within a process every call shares what no command changes: the parser
    (``parse_known_args`` copies a subcommand's values into a new namespace and
    never writes to the parser) and, through ``network._compiled``, the
    network of each (builder, arguments) configuration, which ``run`` gives
    fresh registers and streams.  So a call writes the same bytes whatever
    ran before it in the process.
    """
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.command_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        cfg = _config_from_args(args)
        if cfg.mode == "jeong":
            results, metrics, text = cmd_jeong(cfg)
        elif cfg.mode == "robens":
            results, metrics, text = cmd_robens(cfg)
        elif cfg.mode == "oracle":
            results, metrics, text = cmd_oracle(cfg)
        elif cfg.mode == "compare":
            results, metrics, text = cmd_compare(cfg)
        else:
            results, metrics, text = cmd_lgi(cfg, args.workers)
    except ConfigError as exc:
        print(f"qwalk: configuration error: {exc}", file=sys.stderr)
        return 2
    except DegenerateAmplitude as exc:
        # routing amplitudes vanished, which valid parameters allow: the
        # model defines no port for the particle, so the run cannot go on
        print(f"qwalk: run stopped: {exc}", file=sys.stderr)
        return 3
    except (QwalkError, AssertionError) as exc:
        print(f"qwalk: internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"qwalk: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if cfg.format == "json":
        import json  # only a JSON report reads it

        report = {"config": _config_echo(cfg), "results": results,
                  "metrics": metrics}
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    try:
        _write_output(text, args.out)
    except OSError as exc:
        target = "stdout" if args.out is None else args.out
        print(f"qwalk: cannot write {target}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0

if __name__ == "__main__":
    sys.exit(main())
