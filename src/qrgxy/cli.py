"""Command-line front end.

Subcommands emit machine-readable CSV/JSON for the package's main results:
coupling flows, concurrence curves with their derivatives, scaling fits,
ground-state amplitude dumps, fixed-point structure, and (gamma, j) sweeps.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract error.
A grid too large to allocate (say --grid 1125899906842625, 8 PiB of
float64) is a configuration error too, exit code 2. Error messages are a
single stderr line prefixed with 'qrg-error:'.

Configuration precedence: command-line flags override an optional JSON config
file (--config PATH, keys named like the flags), which overrides built-in
defaults. No environment variables are consulted. Every command checks
that --j is finite and > 0 and that --threads >= 1 (config keys 'j',
'threads'), also where they do not matter: only flow and groundstate read
--j, since concurrence, scaling, fixed-points and jsweep give results that
do not depend on J. --threads has no effect: every command runs serially,
so identical configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .blocks import CouplingParams, block_geometry
from .concurrence import concurrence_curves, concurrence_j_sweep
from .errors import ConfigError, QRGError
from .pauli import basis_label
from .rgflow import fixed_points, ground_doublet, rg_trajectory, solve_many
from .scaling import (
    DEFAULT_STEPS,
    derivative_curve,
    derivative_scaling,
    entanglement_exponent,
    peak_points,
)


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _amplitude(x) -> str:
    # rounding to the printed digits first lets + 0.0 also clear amplitudes
    # below 5e-13 that would otherwise print as -0.000000000000
    return "%.12f" % (round(float(x), 12) + 0.0)


class _Parser(argparse.ArgumentParser):
    # argparse's own failures must follow the single-line error contract
    def error(self, message):
        self.exit(2, f"qrg-error: {message}\n")


# -- config loading and validation ----------------------------------------

def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read '{path}': {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: '{path}' is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: top level of '{path}' must be a JSON object")
    return cfg


def _pick(args, cfg, name, default=None):
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name, default)
    return value


def _as_int(name, value, lo=None, hi=None):
    # int() would take true for 1 and cut 2.7 to 2
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}")
    if lo is not None and out < lo:
        raise ConfigError(f"field '{name}' must be >= {lo}, got {out}")
    if hi is not None and out > hi:
        raise ConfigError(f"field '{name}' must be <= {hi}, got {out}")
    return out


def _as_float(name, value):
    if isinstance(value, bool):
        raise ConfigError(f"field '{name}' must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{name}' must be a number, got {value!r}")


def _dim(args, cfg):
    value = _pick(args, cfg, "dim")
    if value is None:
        raise ConfigError("field 'dim' is required (1, 2 or 3)")
    out = _as_int("dim", value)
    if out not in (1, 2, 3):
        raise ConfigError(f"field 'dim' must be 1, 2 or 3, got {out}")
    return out


def _coupling(args, cfg):
    j = _as_float("j", _pick(args, cfg, "j", 1.0))
    if not 0 < j < math.inf:
        raise ConfigError(f"field 'j' must be finite and > 0, got {j}")
    return j


def _gamma(args, cfg, name="gamma0", default=None, required=False):
    value = _pick(args, cfg, name, default)
    if value is None:
        if required:
            raise ConfigError(f"field '{name}' is required")
        return None
    out = _as_float(name, value)
    if not abs(out) <= 1:
        raise ConfigError(f"field '{name}' must lie in [-1, 1], got {out}")
    return out


def _odd_grid(args, cfg, default, minimum):
    grid = _as_int("grid", _pick(args, cfg, "grid", default), lo=minimum)
    if grid % 2 == 0:
        raise ConfigError(f"field 'grid' must be odd so gamma = 0 is a grid point, got {grid}")
    return grid


def _check_threads(args, cfg):
    _as_int("threads", _pick(args, cfg, "threads", 1), lo=1)


def _format(args, cfg):
    fmt = getattr(args, "fmt", None)
    if fmt is None:
        fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"field 'format' must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _step_list(args, cfg, dimension):
    value = _pick(args, cfg, "steps")
    if value is None:
        return tuple(DEFAULT_STEPS[dimension])
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        value = parts
    if not isinstance(value, (list, tuple)):
        value = [value]
    steps = tuple(_as_int("steps", s, lo=1, hi=64) for s in value)
    if len(set(steps)) < 2:
        raise ConfigError(f"field 'steps' needs at least two distinct rg steps for a fit, got {list(steps)}")
    return steps


def _j_list(args, cfg, default=(0.1, 1.0, 10.0)):
    value = _pick(args, cfg, "js", list(default))
    if isinstance(value, str):
        value = [p for p in value.replace(",", " ").split() if p]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"field 'js' must be a non-empty list of couplings, got {value!r}")
    js = tuple(_as_float("js", v) for v in value)
    if not all(0 < j < math.inf for j in js):
        raise ConfigError(f"field 'js' must contain only finite positive couplings, got {list(js)}")
    return js


def _write(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"field 'out': cannot write '{out}': {exc}")


def _emit_rows(header, rows, fmt, out):
    """rows: list of dicts ordered like `header`. CSV uses %.12g floats."""
    if fmt == "json":
        payload = [{k: row[k] for k in header} for row in rows]
        _write(json.dumps(payload, indent=2) + "\n", out)
        return
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            val = row[key]
            cells.append(_fmt(val) if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", out)


# -- subcommands -----------------------------------------------------------

def cmd_flow(args):
    cfg = _load_config(args.config)
    dim = _dim(args, cfg)
    j = _coupling(args, cfg)
    gamma0 = _gamma(args, cfg, required=True)
    steps = _as_int("steps", _pick(args, cfg, "steps", 2), lo=0, hi=64)
    _check_threads(args, cfg)
    fmt = _format(args, cfg)
    out = _pick(args, cfg, "out")
    traj = rg_trajectory(CouplingParams(j, gamma0), dim, steps)
    rows = [
        {"dim": dim, "step": k, "gamma": float(p.gamma), "j": float(p.j)}
        for k, p in enumerate(traj.steps)
    ]
    _emit_rows(["dim", "step", "gamma", "j"], rows, fmt, out)
    return 0


def cmd_concurrence(args):
    cfg = _load_config(args.config)
    dim = _dim(args, cfg)
    _coupling(args, cfg)
    steps = _as_int("steps", _pick(args, cfg, "steps", 2), lo=0, hi=64)
    grid = _odd_grid(args, cfg, default=2001, minimum=5)
    _check_threads(args, cfg)
    fmt = _format(args, cfg)
    out = _pick(args, cfg, "out")
    rows = []
    for curve in concurrence_curves(dim, range(steps + 1), grid):
        step = curve.rg_step
        deriv = derivative_curve(curve)
        for g, c, a in zip(curve.gamma_grid, curve.values, deriv.abs_derivative):
            rows.append(
                {
                    "dim": dim,
                    "step": step,
                    "gamma": float(g),
                    "concurrence": float(c),
                    "abs_derivative": float(a),
                }
            )
    _emit_rows(["dim", "step", "gamma", "concurrence", "abs_derivative"], rows, fmt, out)
    return 0


def cmd_scaling(args):
    cfg = _load_config(args.config)
    dim = _dim(args, cfg)
    _coupling(args, cfg)
    steps = _step_list(args, cfg, dim)
    grid = _odd_grid(args, cfg, default=2001, minimum=5)
    _check_threads(args, cfg)
    out = _pick(args, cfg, "out")
    rows = peak_points(dim, steps, grid)
    dfit = derivative_scaling(rows)
    efit = entanglement_exponent(rows)
    report = {
        "dimension": dim,
        "points": [
            {
                "step": int(s),
                "N": int(n),
                "gamma_m": float(gm),
                "max_abs_derivative": float(pk),
            }
            for s, n, gm, pk in rows
        ],
        "derivative_fit": {
            "slope": float(dfit.slope),
            "intercept": float(dfit.intercept),
            "r2": float(dfit.r_squared),
        },
        "exponent_fit": {
            "theta": float(efit.theta),
            "r2": float(efit.fit.r_squared),
        },
        "conventions": {
            "N_definition": "N = n_B**step with n_B = 2*dim + 1 sites per block",
            "step_range": [int(s) for s in steps],
        },
    }
    _write(json.dumps(report, indent=2) + "\n", out)
    return 0


def cmd_groundstate(args):
    cfg = _load_config(args.config)
    dim = _dim(args, cfg)
    j = _coupling(args, cfg)
    gamma = _gamma(args, cfg, name="gamma0", default=1.0)
    _check_threads(args, cfg)
    fmt = _format(args, cfg)
    out = _pick(args, cfg, "out")
    geometry = block_geometry(dim)
    doublet = ground_doublet(CouplingParams(j, gamma), geometry)
    n = geometry.n_sites
    if fmt == "json":
        payload = [
            {
                "basis_index": i,
                "basis_label": basis_label(i, n),
                "phi1": float(doublet.phi1[i]),
                "phi2": float(doublet.phi2[i]),
            }
            for i in range(2 ** n)
        ]
        _write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", out)
        return 0
    lines = ["basis_index,basis_label,phi1,phi2"]
    for i in range(2 ** n):
        lines.append(
            "%d,%s,%s,%s"
            % (i, basis_label(i, n), _amplitude(doublet.phi1[i]), _amplitude(doublet.phi2[i]))
        )
    _write("\n".join(lines) + "\n", out)
    return 0


def cmd_fixed_points(args):
    cfg = _load_config(args.config)
    dim = _dim(args, cfg)
    _coupling(args, cfg)
    grid = _as_int("grid", _pick(args, cfg, "grid", 401), lo=100)
    _check_threads(args, cfg)
    out = _pick(args, cfg, "out")
    curve_out = _pick(args, cfg, "curve_out")
    points = fixed_points(dim, grid)
    payload = [
        {
            "gamma": float(p.gamma),
            "stability": p.stability,
            "slope_at_root": float(p.slope),
        }
        for p in points
    ]
    _write(json.dumps(payload, indent=2) + "\n", out)
    if curve_out is not None:
        gs = np.linspace(-1.0, 1.0, grid)
        lines = ["gamma,gamma_prime"]
        gps = solve_many(dim, gs).gamma_prime
        lines.extend("%s,%s" % (_fmt(g), _fmt(gp)) for g, gp in zip(gs, gps))
        _write("\n".join(lines) + "\n", curve_out)
    return 0


def cmd_jsweep(args):
    cfg = _load_config(args.config)
    dim = _dim(args, cfg)
    _coupling(args, cfg)
    grid = _odd_grid(args, cfg, default=21, minimum=3)
    js = _j_list(args, cfg)
    _check_threads(args, cfg)
    out = _pick(args, cfg, "out")
    gammas = np.linspace(-1.0, 1.0, grid)
    values = concurrence_j_sweep(dim, gammas, js)
    spread = float(np.max(values.max(axis=1) - values.min(axis=1)))
    lines = ["gamma,j,concurrence"]
    for gi, g in enumerate(gammas):
        for ji, j in enumerate(js):
            lines.append("%s,%s,%s" % (_fmt(g), _fmt(j), _fmt(values[gi, ji])))
    lines.append("max_j_spread,%s" % _fmt(spread))
    _write("\n".join(lines) + "\n", out)
    return 0


# -- entry point -----------------------------------------------------------

def _flow_arguments(sp):
    sp.add_argument("--gamma0", type=float, default=None, help="initial anisotropy in [-1, 1]")
    sp.add_argument("--steps", type=int, default=None, help="number of rg steps (default 2)")


def _concurrence_arguments(sp):
    sp.add_argument("--steps", type=int, default=None, help="emit steps 0..K (default 2)")
    sp.add_argument("--grid", type=int, default=None, help="odd gamma grid size (default 2001)")


def _scaling_arguments(sp):
    sp.add_argument("--steps", default=None, help="comma list of rg steps (default per dimension)")
    sp.add_argument("--grid", type=int, default=None, help="odd gamma grid size (default 2001)")


def _groundstate_arguments(sp):
    sp.add_argument("--gamma0", type=float, default=None, help="anisotropy (default 1)")


def _fixed_points_arguments(sp):
    sp.add_argument("--grid", type=int, default=None, help="scan grid size (default 401, minimum 100)")
    sp.add_argument("--curve-out", dest="curve_out", default=None,
                    help="also write the gamma'(gamma) curve as CSV to this path")


def _jsweep_arguments(sp):
    sp.add_argument("--grid", type=int, default=None, help="odd gamma grid size (default 21)")
    sp.add_argument("--js", default=None, help="comma list of couplings (default 0.1,1,10)")


# name: (help, whether it takes --format, its own arguments, its handler)
_COMMANDS = {
    "flow": ("renormalized (gamma, j) per rg step", True, _flow_arguments, cmd_flow),
    "concurrence": ("concurrence and |dC/dgamma| curves per rg step", True, _concurrence_arguments,
                    cmd_concurrence),
    "scaling": ("log-log fits of the derivative peak against system size", False, _scaling_arguments,
                cmd_scaling),
    "groundstate": ("ground-doublet amplitudes of one block", True, _groundstate_arguments, cmd_groundstate),
    "fixed-points": ("roots of gamma' = gamma with stabilities", False, _fixed_points_arguments,
                     cmd_fixed_points),
    "jsweep": ("concurrence over a (gamma, j) grid", False, _jsweep_arguments, cmd_jsweep),
}


def _common_arguments(sp, fmt):
    sp.add_argument("--dim", type=int, default=None, help="lattice dimension: 1, 2 or 3")
    sp.add_argument("--j", type=float, default=None, help="coupling strength j > 0 (default 1)")
    sp.add_argument("--config", default=None, help="JSON config file; flags override it")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    # kept so existing invocations and configs stay valid; every
    # command checks it is >= 1, nothing reads it further
    sp.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility; no effect, everything runs serially",
    )
    if fmt:
        sp.add_argument("--format", dest="fmt", default=None, help="csv (default) or json")


def _build_parser(argv):
    """The parser for argv. Every command gets its subparser, so that
    `qrg --help` and the invalid-choice errors list them all, but only the
    command argv runs gets its arguments: building them all costs more
    than the parse (argparse makes a help formatter for each argument).
    The top level takes only -h, so the first token of argv that names a
    command is the command argparse dispatches to."""
    parser = _Parser(
        prog="qrg",
        description="Block-spin renormalization of the spin-1/2 XY model: "
        "coupling flows, concurrence, and critical scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((token for token in argv if token in _COMMANDS), None)
    for name, (help_text, fmt, arguments, handler) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == command:
            _common_arguments(sp, fmt)
            arguments(sp)
            sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"qrg-error: {exc}", file=sys.stderr)
        return 2
    except QRGError as exc:
        print(f"qrg-error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # library-level precondition failures surfaced through the CLI count
        # as configuration mistakes
        print(f"qrg-error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the size it could not allocate
        print(f"qrg-error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
