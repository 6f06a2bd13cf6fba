"""Command-line front end.

Subcommands: exact (closed-form correlation and channel tables), weights
(eigenbasis channel weights), sample (one coincidence series), chsh (four-pair
CHSH run), sweep (correlation curves over a separation grid).  Every command
produces one CSV or JSON document with a metadata block; identical
configuration and seed give byte-identical output regardless of worker count.
A setting pair's fields (both axes, their separation, the pair's values) come
from one record builder, whether they fill the metadata of exact, weights and
sample or a row of chsh.

Exit codes: 0 success, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .harness import canonical_settings, estimate_correlation, run_chsh, run_pairs, run_series
from .hidden import _check_separation, single_electron_correlation, singlet_correlation_analytic
from .quantum import (
    CHANNEL_OUTCOMES,
    BlochDirection,
    correlation_exact,
    correlations_exact,
    decompose_eigenbasis,
    decompose_intermediate,
)
from .streams import _check_int

PAIR_LABELS = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")

MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; all angles stored in radians."""

    command: str
    unit: str
    n: int
    seed: int
    model: str  # the harness's name: hv, quantum-sampler, quantum-exact or transfer-baseline
    out: str | None
    format: str
    workers: int
    settings: tuple[BlochDirection, ...] = ()  # (a, b); (a, a', b, b') for chsh; empty for sweep
    r: BlochDirection | None = None
    grid: tuple[float, ...] | None = None
    grid_text: str | None = None
    single_electron: bool = False


@dataclass(frozen=True)
class Report:
    """One tabular result document: metadata plus fixed-order columns and rows."""

    metadata: dict
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _unsigned(value):
    """A float zero without its sign (-0.0 + 0.0 is 0.0); both renderers pass every cell here."""
    return value + 0.0 if isinstance(value, float) else value


def _fmt(value) -> str:
    value = _unsigned(value)
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def render_csv(report: Report) -> str:
    lines = [f"# {key}={_fmt(value)}" for key, value in report.metadata.items()]
    lines.append(",".join(report.columns))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in report.rows)
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    doc = {
        "metadata": {key: _unsigned(value) for key, value in report.metadata.items()},
        "columns": list(report.columns),
        "rows": [list(map(_unsigned, row)) for row in report.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _base_metadata(config: RunConfig, model: str, **fields) -> dict:
    return {
        "tool": "spincorr",
        "version": __version__,
        "command": config.command,
        "model": model,
        "unit": config.unit,
        "seed": config.seed,
        "n": config.n,
        **fields,
    }


def _axis_fields(**axes: BlochDirection) -> dict:
    """Zenith and azimuth of each named axis, in the order given."""
    fields = {}
    for label, d in axes.items():
        fields[f"{label}_theta"], fields[f"{label}_phi"] = d.theta, d.phi
    return fields


def _pair_fields(
    a: BlochDirection, b: BlochDirection, r: BlochDirection | None = None, **values
) -> dict:
    """The record of one setting pair: axes a, b (and r if given), their separation, then values."""
    axes = _axis_fields(a=a, b=b) if r is None else _axis_fields(a=a, b=b, r=r)
    return {**axes, "separation": a.angle_to(b), **values}


def cmd_exact(config: RunConfig) -> Report:
    """Closed-form correlation plus the channel tables for one setting pair."""
    a, b = config.settings
    record = _pair_fields(a, b, config.r, correlation=correlation_exact(a, b))
    meta = _base_metadata(config, config.model, **record)

    rows = []
    for term in decompose_eigenbasis(a, b).channels:
        rows.append(("eigen", term.index, term.weight.real, 0.0, term.eigenvalue))
    if config.r is not None:
        for term in decompose_intermediate(a, b, config.r).channels:
            rows.append(("intermediate", term.index, term.weight.real, term.weight.imag, None))
    columns = ("table", "channel", "real", "imag", "eigenvalue")
    return Report(metadata=meta, columns=columns, rows=tuple(rows))


def cmd_weights(config: RunConfig) -> Report:
    """:func:`cmd_exact` (weights takes no --r) with its rows cut to channel, weight, eigenvalue."""
    exact = cmd_exact(config)
    rows = tuple((channel, weight, eigen) for _, channel, weight, _, eigen in exact.rows)
    return Report(metadata=exact.metadata, columns=("channel", "weight", "eigenvalue"), rows=rows)


def cmd_sample(config: RunConfig) -> Report:
    """One coincidence series at a single setting pair."""
    a, b = config.settings
    series = run_series(a, b, config.n, config.model, config.seed, workers=config.workers)
    estimate, std_error = estimate_correlation(series)

    record = _pair_fields(a, b, estimate=estimate, std_error=std_error)
    meta = _base_metadata(config, config.model, **record)
    rows = tuple(
        (k + 1, alpha, beta, count, count / series.total)
        for k, ((alpha, beta), count) in enumerate(zip(CHANNEL_OUTCOMES, series.counts))
    )
    columns = ("channel", "alpha", "beta", "count", "fraction")
    return Report(metadata=meta, columns=columns, rows=rows)


def cmd_chsh(config: RunConfig) -> Report:
    """Four-setting CHSH run for the chosen model: one pair record per row."""
    a, a_prime, b, b_prime = config.settings
    report = run_chsh(*config.settings, config.n, config.model, config.seed, workers=config.workers)

    # Models whose pairs draw fresh trials are tagged <model>-per-setting, which
    # bench/checks.py expects of hv; ROADMAP item 6's benchmark change drops the suffix.
    fresh = report.model not in ("quantum-exact", "transfer-baseline")
    meta = _base_metadata(
        config,
        f"{report.model}-per-setting" if fresh else report.model,
        **_axis_fields(a=a, a_prime=a_prime, b=b, b_prime=b_prime),
        s_value=report.s_value,
        s_std_error=report.s_std_error,
    )
    records = [
        _pair_fields(p.a, p.b, estimate=p.estimate, std_error=p.std_error) for p in report.pairs
    ]
    rows = tuple(
        (label, *record.values(), *(p.series.counts if p.series is not None else (0, 0, 0, 0)))
        for label, record, p in zip(PAIR_LABELS, records, report.pairs)
    )
    columns = ("pair", *records[0], "n1", "n2", "n3", "n4")
    return Report(metadata=meta, columns=columns, rows=rows)


def cmd_sweep(config: RunConfig) -> Report:
    """Correlation curves over a separation grid, built column by column: exact,
    analytic, and sampled on coplanar pairs (0, theta)."""
    mode = "single-electron" if config.single_electron else "singlet"
    meta = _base_metadata(config, config.model, mode=mode, grid=config.grid_text)

    settings = [(BlochDirection(0.0), BlochDirection(theta)) for theta in config.grid]
    sampled = run_pairs(settings, config.n, config.model, config.seed, workers=config.workers)
    estimates, std_errors = zip(*map(estimate_correlation, sampled))
    if config.single_electron:
        # Flipped region signs give +cos(theta) and negate the sampled estimate.
        exact = analytic = [single_electron_correlation(theta) for theta in config.grid]
        estimates = [-estimate for estimate in estimates]
    else:
        exact = correlations_exact(settings)
        analytic = singlet_correlation_analytic(config.grid).tolist()
    rows = tuple(zip(config.grid, exact, analytic, estimates, std_errors))
    columns = ("theta_ab", "exact", "hv_analytic", "hv_sampled", "stderr")
    return Report(metadata=meta, columns=columns, rows=rows)


COMMANDS = {
    "exact": cmd_exact,
    "weights": cmd_weights,
    "sample": cmd_sample,
    "chsh": cmd_chsh,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincorr",
        description="Singlet spin correlations: exact values, hidden-variable sampling, CHSH runs.",
    )
    parser.add_argument("--version", action="version", version=f"spincorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deg", action="store_true", help="interpret angles as degrees (default: radians)"
        )
        p.add_argument("--n", type=int, default=1_000_000, help="trials (default 1000000)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed, 64-bit (default 0)")
        p.add_argument(
            "--workers", type=int, default=1,
            help="at most this many worker threads (default 1); series under 8192 trials use one",
        )
        p.add_argument("--out", help="write the document to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("--theta-ab", type=float, help="separation angle (coplanar placement)")
        p.add_argument("--a", help="first setting as zenith,azimuth")
        p.add_argument("--b", help="second setting as zenith,azimuth")

    p_exact = sub.add_parser("exact", help="closed-form correlation and channel tables")
    add_pair(p_exact)
    p_exact.add_argument("--r", help="auxiliary axis zenith,azimuth for the intermediate table")
    add_common(p_exact)

    p_weights = sub.add_parser("weights", help="eigenbasis channel weights")
    add_pair(p_weights)
    add_common(p_weights)

    p_sample = sub.add_parser("sample", help="run one coincidence series")
    add_pair(p_sample)
    p_sample.add_argument(
        "--model", choices=("hv", "quantum-sampler", "transfer"), default="hv",
        help="hv: hidden-variable model; quantum-sampler: sample quantum channel weights; "
        "transfer: hemisphere-sign baseline",
    )
    add_common(p_sample)

    p_chsh = sub.add_parser("chsh", help="four-setting CHSH run")
    for flag in ("--a", "--a-prime", "--b", "--b-prime"):
        p_chsh.add_argument(flag, help=f"setting {flag[2:]} as zenith,azimuth")
    p_chsh.add_argument(
        "--model", choices=("hv", "quantum-exact", "transfer"), default="hv",
        help="hv: per-setting hidden-variable series; quantum-exact: closed-form correlations; "
        "transfer: shared-outcome baseline",
    )
    add_common(p_chsh)

    p_sweep = sub.add_parser("sweep", help="correlation curves over a separation grid")
    p_sweep.add_argument("--grid", required=True, help="separation grid start:stop:step")
    p_sweep.add_argument(
        "--single-electron", action="store_true",
        help="sweep the sequential single-spin correlation instead of the pair",
    )
    add_common(p_sweep)
    return parser


def _parse_direction(text: str, conv: float, flag: str) -> BlochDirection:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects zenith,azimuth, got {text!r}")
    try:
        zenith, azimuth = (float(part) for part in parts)
    except ValueError:
        raise ValueError(f"{flag} expects two numbers, got {text!r}") from None
    return BlochDirection(zenith * conv, azimuth * conv)


def _parse_grid(text: str, conv: float) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3 or any(c.isspace() for c in text):
        raise ValueError(f"--grid expects start:stop:step without whitespace, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ValueError(f"--grid expects numbers, got {text!r}") from None
    _check_separation([start * conv, stop * conv])
    if not 0.0 < step < math.inf or stop < start:
        raise ValueError("--grid needs a finite step > 0 and stop >= start")
    points = (stop - start) / step + 1e-9
    if points >= MAX_GRID_POINTS:
        raise ValueError(f"--grid lists more than {MAX_GRID_POINTS} points")
    # Clamped to stop, so rounding in start + k * step cannot leave [start, stop].
    return tuple(min(start + k * step, stop) * conv for k in range(int(math.floor(points)) + 1))


def config_from_args(args: argparse.Namespace) -> RunConfig:
    n, workers = _check_int("--n", args.n, 1, None), _check_int("--workers", args.workers, 1, None)
    seed = _check_int("--seed", args.seed)
    unit = "deg" if args.deg else "rad"
    # --model takes the harness's names; transfer, for transfer-baseline, stays for
    # bench/run.py, as cmd_chsh's -per-setting tag does (ROADMAP item 6).  exact and
    # weights evaluate the closed form; sweep samples hv.
    model = getattr(args, "model", "hv" if args.command == "sweep" else "quantum-exact")
    conv = math.pi / 180.0 if unit == "deg" else 1.0

    def direction(flag: str) -> BlochDirection | None:
        text = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        return None if text is None else _parse_direction(text, conv, flag)

    theta_ab = getattr(args, "theta_ab", None)
    if theta_ab is not None:
        theta_ab = _check_separation(theta_ab * conv)
    a, b, r, a_prime, b_prime = map(direction, ("--a", "--b", "--r", "--a-prime", "--b-prime"))
    grid_text = getattr(args, "grid", None)
    grid = None if grid_text is None else _parse_grid(grid_text, conv)
    settings = ()
    if args.command == "chsh":
        settings = (a, a_prime, b, b_prime)
        if all(d is None for d in settings):
            settings = canonical_settings()
        elif any(d is None for d in settings):
            raise ValueError("chsh needs all of --a, --a-prime, --b, --b-prime, or none of them")
    elif args.command != "sweep":
        if theta_ab is not None:
            if a is not None or b is not None:
                raise ValueError("give either --theta-ab or both --a and --b, not both")
            a, b = BlochDirection(0.0), BlochDirection(theta_ab)
        elif a is None or b is None:
            raise ValueError("need --theta-ab, or both --a and --b")
        settings = a, b
    return RunConfig(
        command=args.command,
        unit=unit,
        n=n,
        seed=seed,
        model="transfer-baseline" if model == "transfer" else model,
        out=args.out,
        format=args.format,
        workers=workers,
        settings=settings,
        r=r,
        grid=grid,
        grid_text=grid_text,
        single_electron=getattr(args, "single_electron", False),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = COMMANDS[config.command](config)
        document = render_json(report) if config.format == "json" else render_csv(report)
    except ValueError as exc:
        print(f"spincorr: error: {exc}", file=sys.stderr)
        return 2
    if config.out is None:
        sys.stdout.write(document)
        return 0
    try:
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(document)
    except OSError as exc:
        print(f"spincorr: cannot write {config.out}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
