"""Batch experiment front end.

Subcommands: synth | sample | reconstruct | stability | sweep | calibrate.
All outputs are plot-ready CSV/JSON with floats at 17 significant digits;
given identical flags and seed the outputs are byte-identical.

Exit codes: 0 success, 1 I/O failure, 2 constraint violation,
3 numerical singularity.

Size budget: `synth` makes (2M+1)*atoms atoms, `sample` (P+1)*(2J+1)
samples and `reconstruct` (P+1)*points coset values. `sweep` samples
(2M+1)*(2J+1) values and interpolates (2M+1)*eval_points per row, and
`calibrate` samples at most 7*(2*max J+1) per trial, as its draws have
M <= 3. Each count must stay within MAX_VALUES (10^7, 160 MB as complex
numbers); a larger one is a constraint violation (exit 2) that names the
option, raised before any array of that size is allocated.

Option precedence: explicit flags > --config JSON file > MSAMP_SEED
environment variable (seed only) > built-in defaults.

Each option has one type (_TYPES), which converts both the flag's text and
a --config value: a JSON string goes through it as is, any other JSON value
as its JSON text. So integer options reject 1.7 and "x", a switch such as
--bands takes only true or false, and J_values is a comma string such as
"64,128", as on the command line. A value that does not convert, in the
--config file or in MSAMP_SEED, is a constraint violation (exit 2). Keys
that the running subcommand does not declare are ignored, so one file can
serve the whole synth -> sample -> reconstruct chain. A seed must be
>= 0, wherever it comes from.

The argument parser is built once per process, on the first call of main,
and reused by every later call, so a program that calls main in a loop
builds the six subparsers once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .errors import ConstraintError, SingularSystemError
from .oracle import calibrate_truncation, reconstruction_error, save_calibration
from .reconstruction import build_vandermonde, reconstruct, reconstruction_to_csv
from .sampling_grid import build_grid, validate_against
from .sampling_operator import _write_csv, sample_signal, samples_from_csv, samples_to_csv
from .signal_model import (
    evaluate,
    load_spec,
    random_signal,
    save_spec,
    spectral_support,
)
from .stability import (
    stability_constant,
    stability_report,
    vandermonde_inverse_norm,
)

DEFAULT_SEED = 0
MAX_VALUES = 10_000_000


def _within_budget(count: int, what: str) -> None:
    """Refuse a command whose arrays would hold more than MAX_VALUES values."""
    if count > MAX_VALUES:
        raise ConstraintError(f"{what} = {count} values, above the ceiling of {MAX_VALUES}")


def int_list(text: str) -> list[int]:
    """Comma-separated integers, such as "64,128,256"."""
    return [int(s) for s in text.split(",") if s.strip()]


# The type of every option; `bool` marks a switch that takes no value.
_TYPES = {
    **dict.fromkeys(["N", "epsilon", "amplitude_bound", "dX", "dx"], float),
    **dict.fromkeys(["M", "atoms", "P", "J", "points", "eval_points", "trials", "seed"], int),
    **dict.fromkeys(["spec", "samples", "out"], str),
    "bands": bool,
    "J_values": int_list,
}

# subcommand: (help, its options in --help order, help of those that have one).
# Every subcommand also takes --config and --seed.
_COMMANDS = {
    "synth": (
        "synthesize a random signal spec",
        "N M epsilon atoms amplitude_bound out",
        {},
    ),
    "sample": ("sample a signal on a multicoset grid", "spec dX dx P J out", {}),
    "reconstruct": (
        "reconstruct a signal from samples",
        "samples spec N M epsilon points bands out",
        {
            "spec": "ground-truth spec (enables error reporting)",
            "bands": "include per-band columns",
        },
    ),
    "stability": ("stability report for a (spec, grid) pair", "spec dX dx P J out", {}),
    "sweep": (
        "sweep delta_x/epsilon, record C and errors",
        "spec dX J points eval_points out",
        {"points": "number of sweep points"},
    ),
    "calibrate": ("regenerate the truncation tolerance table", "J_values trials out", {}),
}


def _convert(name: str, value, source: str):
    """Convert a --config or environment value as the flag's text would be."""
    kind = _TYPES[name]
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConstraintError(f"{source}: {name} = {json.dumps(value)} is not true or false")
    try:
        return kind(value if isinstance(value, str) else json.dumps(value))
    except ValueError as exc:
        raise ConstraintError(f"{source}: {name} = {json.dumps(value)}: {exc}") from exc


def _read_config(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            values = json.load(f)
        except ValueError as exc:
            raise ConstraintError(f"--config {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConstraintError(f"--config {path} is not a JSON object")
    return values


class _Config:
    """Typed option values of one subcommand run: flag > config file > default."""

    def __init__(self, args: argparse.Namespace):
        file_values = _read_config(args.config) if args.config else {}
        self.values, self.sources = {}, {}
        for name in _COMMANDS[args.command][1].split() + ["seed"]:
            value, source = getattr(args, name), "--" + name.replace("_", "-")
            if value is None and name in file_values:
                source = f"--config {args.config}"
                value = _convert(name, file_values[name], source)
            if value is not None:
                self.values[name], self.sources[name] = value, source

    def get(self, name: str, default=None):
        return self.values.get(name, default)

    def require(self, name: str):
        v = self.get(name)
        if v is None:
            raise ConstraintError(f"missing required option --{name}")
        return v

    def seed(self) -> int:
        env = os.environ.get("MSAMP_SEED")
        if "seed" in self.values:
            seed, source = self.values["seed"], self.sources["seed"]
        elif env is not None:
            seed, source = _convert("seed", env, "MSAMP_SEED"), "MSAMP_SEED"
        else:
            return DEFAULT_SEED
        if seed < 0:
            raise ConstraintError(f"{source}: seed = {seed} is negative; seeds must be >= 0")
        return seed


def _grid(cfg: _Config):
    return build_grid(
        delta_X=cfg.require("dX"),
        delta_x=cfg.get("dx", 0.0),
        P=cfg.require("P"),
        J=cfg.require("J"),
    )


def cmd_synth(cfg: _Config) -> int:
    atoms = cfg.get("atoms", 2)
    _within_budget((2 * max(cfg.get("M", 0), 0) + 1) * atoms, "--atoms: (2M+1)*atoms")
    spec = random_signal(
        seed=cfg.seed(),
        N=cfg.require("N"),
        M=cfg.require("M"),
        epsilon=cfg.require("epsilon"),
        atoms_per_band=atoms,
        amplitude_bound=cfg.get("amplitude_bound", 1.0),
    )
    out = cfg.require("out")
    save_spec(spec, out)
    support = spectral_support(spec)
    print(f"wrote {out}")
    print(
        f"spectral support: {2 * spec.M + 1} bands of width {2 * spec.N:.17g}, "
        f"total measure {support.total_measure():.17g}"
    )
    for lo, hi in support.intervals:
        print(f"  [{lo:.17g}, {hi:.17g}]")
    return 0


def cmd_sample(cfg: _Config) -> int:
    spec = load_spec(cfg.require("spec"))
    grid = _grid(cfg)
    _within_budget(grid.n_points, "--J: (P+1)*(2J+1)")
    samples = sample_signal(spec, grid)
    out = cfg.require("out")
    samples_to_csv(samples, out)
    print(f"wrote {out} ({samples.grid.n_points} samples)")
    return 0


def cmd_reconstruct(cfg: _Config) -> int:
    samples = samples_from_csv(cfg.require("samples"))
    spec = load_spec(cfg.get("spec")) if cfg.get("spec") else None
    params = tuple(cfg.get(name) for name in ("N", "M", "epsilon"))
    if spec is None and None in params:
        raise ConstraintError("need --spec or all of --N --M --epsilon")
    n_points = cfg.get("points", 65)
    if n_points < 1:
        raise ConstraintError("--points must be >= 1")
    grid = samples.grid
    _within_budget((grid.P + 1) * n_points, "--points: (P+1)*points")
    half = grid.J * grid.delta_X / 2
    xs = np.linspace(-half, half, n_points)
    rec = reconstruct(samples, spec or params, xs)
    truth = evaluate(spec, xs) if spec is not None else None
    out = cfg.require("out")
    reconstruction_to_csv(rec, out, truth=truth, include_bands=cfg.get("bands", False))
    print(f"wrote {out}")
    if truth is not None:
        err = np.abs(rec.assembled - truth)
        scale = float(np.max(np.abs(truth)))
        print(f"max interior error:  {np.max(err):.17g}")
        print(f"mean interior error: {np.mean(err):.17g}")
        if scale > 0:
            print(f"max relative error:  {np.max(err) / scale:.17g}")
    return 0


def cmd_stability(cfg: _Config) -> int:
    spec = load_spec(cfg.require("spec"))
    report = stability_report(spec, _grid(cfg))
    payload = json.dumps(dataclasses.asdict(report), indent=2)
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
        print(f"wrote {out}")
    else:
        print(payload)
    return 0


def cmd_sweep(cfg: _Config) -> int:
    spec = load_spec(cfg.require("spec"))
    delta_X = cfg.require("dX")
    J = cfg.get("J", 64)
    n_points = cfg.get("points", 20)
    n_eval = cfg.get("eval_points", 17)
    if n_points < 1:
        raise ConstraintError("--points must be >= 1")
    if n_eval < 1:
        raise ConstraintError("--eval-points must be >= 1")
    M = spec.M
    r_max = 1 / (2 * M + 1)
    # as validate_against computes it, so the last row's delta_x is the cap
    cap = spec.epsilon / (2 * M + 1)
    seed = cfg.seed()
    # delta_X and J are the same in every row, and so is whether a folded
    # band straddles the cell edge: refuse a bad one once, here, rather than
    # blank every row. The probe's delta_x, half the cap, is valid, so only
    # delta_X and J can fail.
    probe = build_grid(delta_X=delta_X, delta_x=cap / 2, P=2 * M, J=J)
    validate_against(probe, spec).require_ok()
    _within_budget(probe.n_points, "--J: (2M+1)*(2J+1)")
    _within_budget((2 * M + 1) * n_eval, "--eval-points: (2M+1)*eval_points")
    build_vandermonde(spec, probe).require_no_straddle()

    rows = []
    for i in range(1, n_points + 1):
        ratio = r_max * i / n_points
        delta_x = cap * (i / n_points)
        row = {"index": i, "ratio": ratio, "delta_x": delta_x, "ok": 1}
        try:
            grid = build_grid(delta_X=delta_X, delta_x=delta_x, P=2 * M, J=J)
            # first, so that a row whose reconstruction fails is blanked at
            # once; a fresh generator per row: every row uses the same points
            row["max_err"] = reconstruction_error(
                spec, grid, n_points=n_eval, rng=np.random.default_rng(seed)
            )
            row["C"] = stability_constant(
                spec.N, M, spec.epsilon, delta_X, delta_x
            )
            row["vinv_norm"] = vandermonde_inverse_norm(build_vandermonde(spec, grid).nodes)
        except (ConstraintError, SingularSystemError):
            row.update({"ok": 0, "C": "", "vinv_norm": "", "max_err": ""})
        rows.append(row)

    out = cfg.require("out")
    header = ["index", "ratio", "delta_x", "ok", "C", "vinv_norm", "max_err"]
    _write_csv(out, header, [[row[name] for row in rows] for name in header])
    n_ok = sum(r["ok"] for r in rows)
    print(f"wrote {out} ({len(rows)} rows, {n_ok} valid)")
    return 0


def cmd_calibrate(cfg: _Config) -> int:
    J_values = cfg.get("J_values", [64, 128, 256, 512])
    # random_valid_pair draws M <= 3, so a trial samples at most 7 cosets
    _within_budget(7 * (2 * max(J_values, default=0) + 1), "--J-values: 7*(2*max J+1)")
    table = calibrate_truncation(J_values, trials=cfg.get("trials", 40), seed=cfg.seed())
    out = cfg.require("out")
    save_calibration(table, out)
    print(f"wrote {out}")
    for J in table.j_values:
        print(
            f"  J={J}: measured {table.measured[J]:.6g}, "
            f"tau {table.tolerances[J]:.6g}"
        )
    return 0


def _add_option(p: argparse.ArgumentParser, name: str, text: str | None) -> None:
    flag = "--" + name.replace("_", "-")
    if _TYPES[name] is bool:
        p.add_argument(flag, action="store_const", const=True, default=None, help=text)
    else:
        p.add_argument(flag, type=_TYPES[name], help=text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The msamp parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="msamp",
        description="Sub-Nyquist multicoset sampling and reconstruction of "
        "multiscale bandlimited signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, names, option_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in names.split():
            _add_option(p, name, option_help.get(name))
        p.add_argument("--config", help="JSON file with default option values")
        _add_option(p, "seed", "RNG seed (default: MSAMP_SEED or 0)")
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "sample": cmd_sample,
    "reconstruct": cmd_reconstruct,
    "stability": cmd_stability,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _Config(args)
        return _HANDLERS[args.command](cfg)
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"numerical singularity: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
