"""Command-line front end.

Subcommands emit machine-readable CSV/JSON for the package's main results:
coupling flows, concurrence curves with their derivatives, scaling fits,
ground-state amplitude dumps, fixed-point structure, and (gamma, j) sweeps.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract error.
A grid too large to allocate (say --grid 1125899906842625, 8 PiB of
float64) is a configuration error too, exit code 2, and so is one of more
points than numpy can describe as one float64 array, refused by the grid
field's check. Error messages are a single stderr line prefixed with
'qrg-error:'.

One table, `_COMMANDS`, declares each command's help, runner and fields.
A field `(name, argparse type, help, default, check)` gives the flag
--name (with '-' for '_'), the config key `name`, its default and its
check. `main` checks the fields in the order dim, j, the command's own,
threads, format (where taken), out, and reports the first bad one; the
runner gets the checked values and returns the text for --out.

`main` reads an exact argv itself (see `_exact_args`): a command, then
pairs of one of its flags spelled out in full and a value that does not
start with '-'. Every other argv (help, --flag=value, an abbreviated or
unknown flag, a dash-leading value, a value of the wrong type) goes to
argparse, which is imported only then, so help, usage and errors are
argparse's. A stdout that cannot be written (a full disk, a closed pipe,
an encoding without the characters of the text) is a configuration error
of field 'out', like an --out path.

One function, `_table`, writes every table (flow, concurrence,
groundstate, jsweep and the --curve-out curve) from its columns of Python
scalars: CSV as one `%` row template per table, JSON as one object per
row.

Configuration precedence: command-line flags override an optional JSON config
file (--config PATH, keys named like the flags), which overrides built-in
defaults. No environment variables are consulted. Every command checks
that --j is finite and > 0 and that --threads >= 1 (config keys 'j',
'threads'), also where they do not matter: only flow and groundstate read
--j, since concurrence, scaling, fixed-points and jsweep give results that
do not depend on J. --threads has no effect: every command runs serially,
so identical configuration produces byte-identical output.
"""

import functools
import json
import math
import os
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


def _Parser(**kwargs):
    """An argparse.ArgumentParser whose own failures follow the single-line
    error contract."""
    return _parser_class()(**kwargs)


@functools.cache
def _parser_class():
    # imported on first use: an exact argv never needs argparse, which with
    # the gettext and locale it loads costs more than the parse itself
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(2, f"qrg-error: {message}\n")

    return Parser


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
    # a misspelt key would silently leave its field at the default; a key
    # of another command is kept, so that one file can serve several
    known = {field[0] for _help, _run, fields in _COMMANDS.values() for field in fields}
    unknown = [key for key in cfg if key not in known]
    if unknown:
        raise ConfigError(
            f"config: '{path}' has keys that no command takes: {', '.join(map(repr, unknown))}"
        )
    return cfg


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


# Each check takes a field's name and its value (flag, else config key, else
# default) and returns the checked value or raises ConfigError.

def _int_in(lo, hi=None):
    return lambda name, value: _as_int(name, value, lo, hi)


def _dim(name, value):
    if value is None:
        raise ConfigError(f"field '{name}' is required (1, 2 or 3)")
    out = _as_int(name, value)
    if out not in (1, 2, 3):
        raise ConfigError(f"field '{name}' must be 1, 2 or 3, got {out}")
    return out


def _coupling(name, value):
    j = _as_float(name, value)
    if not 0 < j < math.inf:
        raise ConfigError(f"field '{name}' must be finite and > 0, got {j}")
    return j


def _gamma(name, value):
    if value is None:
        raise ConfigError(f"field '{name}' is required")
    out = _as_float(name, value)
    if not abs(out) <= 1:
        raise ConfigError(f"field '{name}' must lie in [-1, 1], got {out}")
    return out


def _grid(minimum, odd=True):
    def check(name, value):
        # half the float64 points that one numpy array can hold: linspace
        # counts its points in float64 and, a few dozen short of the full
        # count, refuses in numpy's words instead of failing to allocate
        grid = _as_int(name, value, minimum, np.iinfo(np.intp).max // 16)
        if odd and grid % 2 == 0:
            raise ConfigError(f"field '{name}' must be odd so gamma = 0 is a grid point, got {grid}")
        return grid
    return check


def _csv_or_json(name, value):
    if value not in ("csv", "json"):
        raise ConfigError(f"field '{name}' must be 'csv' or 'json', got {value!r}")
    return value


def _path(name, value):
    # open() would take true or 2 for a file descriptor to write and close
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"field '{name}' must be a string, got {value!r}")
    return value


def _split(value):
    """A string '1,2 3' as its comma- or space-separated items."""
    return value.replace(",", " ").split() if isinstance(value, str) else value


def _step_list(name, value):
    if value is None:
        return None  # the runner takes the dimension's default
    value = _split(value)
    if not isinstance(value, (list, tuple)):
        value = [value]
    steps = tuple(_as_int(name, s, lo=1, hi=64) for s in value)
    if len(set(steps)) < 2:
        raise ConfigError(f"field '{name}' needs at least two distinct rg steps for a fit, got {list(steps)}")
    return steps


def _j_list(name, value):
    value = _split(value)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"field '{name}' must be a non-empty list of couplings, got {value!r}")
    js = tuple(_as_float(name, v) for v in value)
    if not all(0 < j < math.inf for j in js):
        raise ConfigError(f"field '{name}' must contain only finite positive couplings, got {list(js)}")
    return js


def _write(text: str, path, name) -> None:
    """Write text to the path of field `name`, or to stdout if it is None."""
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except (OSError, UnicodeEncodeError) as exc:
            # an encoding stdout has no characters for (the basis labels'
            # arrows under PYTHONIOENCODING=ascii) fails before a byte is
            # written; after an OSError the flush at exit would fail again
            # and print a traceback, so, as the Python docs advise for
            # SIGPIPE, stdout's descriptor goes to os.devnull so that flush
            # has somewhere to write
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"field '{name}': cannot write stdout: {exc}")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"field '{name}': cannot write '{path}': {exc}")


def _table(header, columns, fmt, template):
    """The table whose columns (sequences of Python scalars, one per name
    in `header`) are `columns`: JSON, one object per row keyed by `header`,
    or CSV, the header line and then `template % row` for each row."""
    rows = zip(*columns)
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2, ensure_ascii=False) + "\n"
    return "\n".join([",".join(header), *(template % row for row in rows)]) + "\n"


# -- subcommands: the checked values in, the text for --out back ----------

def _flow(v):
    steps = rg_trajectory(CouplingParams(v["j"], v["gamma0"]), v["dim"], v["steps"]).steps
    columns = (
        [v["dim"]] * len(steps),
        range(len(steps)),
        [float(p.gamma) for p in steps],
        [float(p.j) for p in steps],
    )
    return _table(["dim", "step", "gamma", "j"], columns, v["format"], "%d,%d,%.12g,%.12g")


def _concurrence(v):
    curves = concurrence_curves(v["dim"], range(v["steps"] + 1), v["grid"])
    columns = (
        [v["dim"]] * (len(curves) * v["grid"]),
        [curve.rg_step for curve in curves for _ in range(v["grid"])],
        np.concatenate([curve.gamma_grid for curve in curves]).tolist(),
        np.concatenate([curve.values for curve in curves]).tolist(),
        np.concatenate([derivative_curve(curve).abs_derivative for curve in curves]).tolist(),
    )
    header = ["dim", "step", "gamma", "concurrence", "abs_derivative"]
    return _table(header, columns, v["format"], "%d,%d,%.12g,%.12g,%.12g")


def _scaling(v):
    dim = v["dim"]
    steps = v["steps"] or tuple(DEFAULT_STEPS[dim])
    rows = peak_points(dim, steps, v["grid"])
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
    return json.dumps(report, indent=2) + "\n"


def _groundstate(v):
    geometry = block_geometry(v["dim"])
    doublet = ground_doublet(CouplingParams(v["j"], v["gamma0"]), geometry)
    n = geometry.n_sites
    indices = range(2 ** n)
    phis = [doublet.phi1.tolist(), doublet.phi2.tolist()]
    if v["format"] == "csv":
        # rounding to the printed digits first lets + 0.0 also clear
        # amplitudes below 5e-13 that would otherwise print as -0.000000000000
        phis = [[round(x, 12) + 0.0 for x in phi] for phi in phis]
    columns = (indices, [basis_label(i, n) for i in indices], *phis)
    return _table(["basis_index", "basis_label", "phi1", "phi2"], columns, v["format"], "%d,%s,%.12f,%.12f")


def _fixed_points(v):
    points = fixed_points(v["dim"], v["grid"])
    payload = [
        {
            "gamma": float(p.gamma),
            "stability": p.stability,
            "slope_at_root": float(p.slope),
        }
        for p in points
    ]
    text = json.dumps(payload, indent=2) + "\n"
    if v["curve_out"] is not None:
        gs = np.linspace(-1.0, 1.0, v["grid"])
        columns = (gs.tolist(), solve_many(v["dim"], gs).gamma_prime.tolist())
        # written before the roots, so a curve path that cannot be written
        # leaves stdout empty like every other configuration error
        _write(_table(["gamma", "gamma_prime"], columns, "csv", "%.12g,%.12g"), v["curve_out"], "curve_out")
    return text


def _jsweep(v):
    gammas = np.linspace(-1.0, 1.0, v["grid"])
    js = v["js"]
    values = concurrence_j_sweep(v["dim"], gammas, js)
    spread = float(np.max(values.max(axis=1) - values.min(axis=1)))
    columns = (np.repeat(gammas, len(js)).tolist(), list(js) * len(gammas), values.ravel().tolist())
    table = _table(["gamma", "j", "concurrence"], columns, "csv", "%.12g,%.12g,%.12g")
    return table + "max_j_spread,%.12g\n" % spread


# -- entry point -----------------------------------------------------------

_DIM = ("dim", int, "lattice dimension: 1, 2 or 3", None, _dim)
_J = ("j", float, "coupling strength j > 0 (default 1)", 1.0, _coupling)
# kept so existing invocations and configs stay valid; every command
# checks it is >= 1, nothing reads it further
_THREADS = ("threads", int, "accepted for compatibility; no effect, everything runs serially",
            1, _int_in(1))
_FORMAT = ("format", None, "csv (default) or json", "csv", _csv_or_json)
_OUT = ("out", None, "output path (default: stdout)", None, _path)


def _command(help_text, run, *own, fmt=False):
    """A `_COMMANDS` entry: (help, runner, fields in check order)."""
    return help_text, run, (_DIM, _J, *own, _THREADS, *((_FORMAT,) if fmt else ()), _OUT)


_COMMANDS = {
    "flow": _command(
        "renormalized (gamma, j) per rg step", _flow,
        ("gamma0", float, "initial anisotropy in [-1, 1]", None, _gamma),
        ("steps", int, "number of rg steps (default 2)", 2, _int_in(0, 64)),
        fmt=True,
    ),
    "concurrence": _command(
        "concurrence and |dC/dgamma| curves per rg step", _concurrence,
        ("steps", int, "emit steps 0..K (default 2)", 2, _int_in(0, 64)),
        ("grid", int, "odd gamma grid size (default 2001)", 2001, _grid(5)),
        fmt=True,
    ),
    "scaling": _command(
        "log-log fits of the derivative peak against system size", _scaling,
        ("steps", None, "comma list of rg steps (default per dimension)", None, _step_list),
        ("grid", int, "odd gamma grid size (default 2001)", 2001, _grid(5)),
    ),
    "groundstate": _command(
        "ground-doublet amplitudes of one block", _groundstate,
        ("gamma0", float, "anisotropy (default 1)", 1.0, _gamma),
        fmt=True,
    ),
    "fixed-points": _command(
        "roots of gamma' = gamma with stabilities", _fixed_points,
        ("grid", int, "scan grid size (default 401, minimum 100)", 401, _grid(100, odd=False)),
        ("curve_out", None, "also write the gamma'(gamma) curve as CSV to this path", None, _path),
    ),
    "jsweep": _command(
        "concurrence over a (gamma, j) grid", _jsweep,
        ("grid", int, "odd gamma grid size (default 21)", 21, _grid(3)),
        ("js", None, "comma list of couplings (default 0.1,1,10)", (0.1, 1.0, 10.0), _j_list),
    ),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _exact_args(argv):
    """`vars()` of the namespace argparse would give for argv, when argv is
    exact; None otherwise.

    Exact: a command, then pairs of one of its flags (or --config) spelled
    out in full and a value that does not start with '-' and that the
    flag's type takes (int, float, or the string as given). A repeated flag
    keeps its last value, as with argparse. A dash-leading value is left to
    argparse, whose rule for which of them are numbers and which are flags
    differs between Python versions."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = {"--config": ("config", None)}
    flags.update((_flag(name), (name, type_)) for name, type_, *_ in _COMMANDS[argv[0]][2])
    args = {"command": argv[0], **dict.fromkeys(name for name, _type in flags.values())}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or value.startswith("-"):
            return None
        name, type_ = flags[flag]
        try:
            args[name] = value if type_ is None else type_(value)
        except ValueError:
            return None
    return args


def _build_parser(argv):
    """The argparse parser for an argv that is not exact (see `_exact_args`):
    help, usage and errors, and the spellings only argparse reads
    (--flag=value, abbreviations, dash-leading values). It holds only what
    argv can use: building parsers costs more than the parse (argparse
    makes a help formatter for each subparser and each argument). The top
    level takes only -h, so the first token of argv that names a command is
    the command argparse dispatches to, and only that one gets its
    arguments. When argv starts with that command, it is the only
    subparser; otherwise (no command, -h, an unknown command or a flag
    first) every command gets its subparser, so that `qrg --help` and the
    errors that list the choices name them all."""
    parser = _Parser(
        prog="qrg",
        description="Block-spin renormalization of the spin-1/2 XY model: "
        "coupling flows, concurrence, and critical scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((token for token in argv if token in _COMMANDS), None)
    names = [command] if argv and argv[0] == command else list(_COMMANDS)
    for name in names:
        help_text, _run, fields = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        if name == command:
            sp.add_argument("--config", help="JSON config file; flags override it")
            for field, type_, field_help, _default, _check in fields:
                sp.add_argument(_flag(field), type=type_, help=field_help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _exact_args(argv)
    if args is None:
        args = vars(_build_parser(argv).parse_args(argv))
    _help, run, fields = _COMMANDS[args["command"]]
    try:
        cfg = _load_config(args["config"])
        values = {}
        for name, _type, _text, default, check in fields:
            value = args[name]
            values[name] = check(name, cfg.get(name, default) if value is None else value)
        _write(run(values), values["out"], "out")
        return 0
    except (ConfigError, ValueError) as exc:
        # library-level precondition failures (ValueError) surfaced through
        # the CLI count as configuration mistakes
        print(f"qrg-error: {exc}", file=sys.stderr)
        return 2
    except QRGError as exc:
        print(f"qrg-error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the size it could not allocate
        print(f"qrg-error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
