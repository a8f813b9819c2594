"""Batch experiment front end.

Subcommands: synth | sample | reconstruct | stability | sweep | calibrate.
All outputs are plot-ready CSV/JSON with floats at 17 significant digits;
given identical flags and seed the outputs are byte-identical.

Exit codes: 0 success, 1 I/O failure, 2 constraint violation,
3 numerical singularity.

Option precedence: explicit flags > --config JSON file > MSAMP_SEED
environment variable (seed only) > built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import ConstraintError, SingularSystemError
from .oracle import calibrate_truncation, reconstruction_error, save_calibration
from .reconstruction import build_vandermonde, reconstruct, reconstruction_to_csv
from .sampling_grid import build_grid, validate_against
from .sampling_operator import sample_signal, samples_from_csv, samples_to_csv
from .signal_model import (
    evaluate,
    load_spec,
    random_signal,
    save_spec,
    spectral_support,
)
from .stability import (
    report_to_dict,
    stability_constant,
    stability_report,
    vandermonde_inverse_norm,
)

DEFAULT_SEED = 0


class _Config:
    """Flag > config-file > default resolution for one subcommand run."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = {}
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as f:
                try:
                    self.file_values = json.load(f)
                except ValueError as exc:
                    raise ConstraintError(
                        f"--config {args.config} is not valid JSON: {exc}"
                    ) from exc
            if not isinstance(self.file_values, dict):
                raise ConstraintError(f"--config {args.config} is not a JSON object")

    def get(self, name: str, default=None):
        v = getattr(self.args, name, None)
        if v is not None:
            return v
        if name in self.file_values:
            return self.file_values[name]
        return default

    def require(self, name: str):
        v = self.get(name)
        if v is None:
            raise ConstraintError(f"missing required option --{name}")
        return v

    def seed(self) -> int:
        v = self.get("seed")
        if v is not None:
            return int(v)
        env = os.environ.get("MSAMP_SEED")
        if env is not None:
            return int(env)
        return DEFAULT_SEED


def _spec_params(cfg: _Config):
    """(N, M, epsilon) from --spec file or explicit flags."""
    path = cfg.get("spec")
    if path:
        spec = load_spec(path)
        return spec, (spec.N, spec.M, spec.epsilon)
    N, M, eps = cfg.get("N"), cfg.get("M"), cfg.get("epsilon")
    if N is None or M is None or eps is None:
        raise ConstraintError("need --spec or all of --N --M --epsilon")
    return None, (float(N), int(M), float(eps))


def cmd_synth(cfg: _Config) -> int:
    spec = random_signal(
        seed=cfg.seed(),
        N=float(cfg.require("N")),
        M=int(cfg.require("M")),
        epsilon=float(cfg.require("epsilon")),
        atoms_per_band=int(cfg.get("atoms", 2)),
        amplitude_bound=float(cfg.get("amplitude_bound", 1.0)),
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
    grid = build_grid(
        delta_X=float(cfg.require("dX")),
        delta_x=float(cfg.get("dx", 0.0)),
        P=int(cfg.require("P")),
        J=int(cfg.require("J")),
    )
    report = validate_against(grid, spec)
    if not report.ok:
        print("grid fails constraints:", file=sys.stderr)
        for c in report.failures:
            print(f"  {c.name}: {c.detail}", file=sys.stderr)
        return 2
    samples = sample_signal(spec, grid)
    out = cfg.require("out")
    samples_to_csv(samples, out)
    print(f"wrote {out} ({samples.grid.n_points} samples)")
    return 0


def cmd_reconstruct(cfg: _Config) -> int:
    samples = samples_from_csv(cfg.require("samples"))
    spec, params = _spec_params(cfg)
    n = int(cfg.get("points", 65))
    grid = samples.grid
    half = grid.J * grid.delta_X / 2
    xs = np.linspace(-half, half, n)
    rec = reconstruct(samples, params, xs)
    truth = evaluate(spec, xs) if spec is not None else None
    out = cfg.require("out")
    reconstruction_to_csv(
        rec, out, truth=truth, include_bands=bool(cfg.get("bands", False))
    )
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
    grid = build_grid(
        delta_X=float(cfg.require("dX")),
        delta_x=float(cfg.get("dx", 0.0)),
        P=int(cfg.require("P")),
        J=int(cfg.require("J")),
    )
    report = stability_report(spec, grid)
    payload = json.dumps(report_to_dict(report), indent=2)
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
    delta_X = float(cfg.require("dX"))
    J = int(cfg.get("J", 64))
    n_points = int(cfg.get("points", 20))
    n_eval = int(cfg.get("eval_points", 17))
    if n_points < 1:
        raise ConstraintError("--points must be >= 1")
    M = spec.M
    r_max = 1 / (2 * M + 1)
    seed = cfg.seed()

    rows = []
    for i in range(1, n_points + 1):
        ratio = r_max * i / n_points
        delta_x = ratio * spec.epsilon
        row = {"index": i, "ratio": ratio, "delta_x": delta_x, "ok": 1}
        try:
            grid = build_grid(delta_X=delta_X, delta_x=delta_x, P=2 * M, J=J)
            report = validate_against(grid, spec)
            if not report.ok:
                raise ConstraintError(
                    "; ".join(c.name for c in report.failures)
                )
            row["C"] = stability_constant(
                spec.N, M, spec.epsilon, delta_X, delta_x
            )
            system = build_vandermonde(spec, grid)
            row["vinv_norm"] = vandermonde_inverse_norm(system)
            # a fresh generator per row: every row uses the same points
            row["max_err"] = reconstruction_error(
                spec, grid, n_points=n_eval, rng=np.random.default_rng(seed)
            )
        except (ConstraintError, SingularSystemError) as exc:
            row.update({"ok": 0, "C": "", "vinv_norm": "", "max_err": ""})
            row["note"] = str(exc).splitlines()[0]
        rows.append(row)

    out = cfg.require("out")
    with open(out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["index", "ratio", "delta_x", "ok", "C", "vinv_norm", "max_err"])
        for row in rows:
            w.writerow(
                [
                    row["index"],
                    f"{row['ratio']:.17g}",
                    f"{row['delta_x']:.17g}",
                    row["ok"],
                ]
                + [
                    f"{row[k]:.17g}" if isinstance(row[k], float) else row[k]
                    for k in ("C", "vinv_norm", "max_err")
                ]
            )
    n_ok = sum(r["ok"] for r in rows)
    print(f"wrote {out} ({len(rows)} rows, {n_ok} valid)")
    return 0


def cmd_calibrate(cfg: _Config) -> int:
    j_values = cfg.get("J_values", "64,128,256,512")
    if isinstance(j_values, str):
        j_values = [int(s) for s in j_values.split(",") if s.strip()]
    trials = int(cfg.get("trials", 40))
    table = calibrate_truncation(j_values, trials=trials, seed=cfg.seed())
    out = cfg.require("out")
    save_calibration(table, out)
    print(f"wrote {out}")
    for J in table.j_values:
        print(
            f"  J={J}: measured {table.measured[J]:.6g}, "
            f"tau {table.tolerances[J]:.6g}"
        )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--seed", type=int, help="RNG seed (default: MSAMP_SEED or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msamp",
        description="Sub-Nyquist multicoset sampling and reconstruction of "
        "multiscale bandlimited signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a random signal spec")
    p.add_argument("--N", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--atoms", type=int)
    p.add_argument("--amplitude-bound", dest="amplitude_bound", type=float)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("sample", help="sample a signal on a multicoset grid")
    p.add_argument("--spec")
    p.add_argument("--dX", type=float)
    p.add_argument("--dx", type=float)
    p.add_argument("--P", type=int)
    p.add_argument("--J", type=int)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("reconstruct", help="reconstruct a signal from samples")
    p.add_argument("--samples")
    p.add_argument("--spec", help="ground-truth spec (enables error reporting)")
    p.add_argument("--N", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--bands", action="store_const", const=True, default=None,
                   help="include per-band columns")
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("stability", help="stability report for a (spec, grid) pair")
    p.add_argument("--spec")
    p.add_argument("--dX", type=float)
    p.add_argument("--dx", type=float)
    p.add_argument("--P", type=int)
    p.add_argument("--J", type=int)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("sweep", help="sweep delta_x/epsilon, record C and errors")
    p.add_argument("--spec")
    p.add_argument("--dX", type=float)
    p.add_argument("--J", type=int)
    p.add_argument("--points", type=int, help="number of sweep points")
    p.add_argument("--eval-points", dest="eval_points", type=int)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("calibrate", help="regenerate the truncation tolerance table")
    p.add_argument("--J-values", dest="J_values")
    p.add_argument("--trials", type=int)
    p.add_argument("--out")
    _add_common(p)

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
