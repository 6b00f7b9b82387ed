"""Command-line front end.

Subcommands
-----------
estimate   evaluate a functional on a CSV dataset
sf         add-one-point sensitivity on a CSV dataset
esf        finite-n expected sensitivity (Monte Carlo, plus exact value
           when a closed finite-n formula exists)
aesf-grid  closed-form AESF surface over a rectangular grid, as CSV
converge   ESF along an n schedule against the closed-form limit, as CSV
sfdist     raw SF replicate values, one per CSV row

Exit codes: 0 success, 2 parse failure, 3 ties, 4 unsupported
(functional, model) pair, 1 anything else.

Input CSV has header ``x`` (univariate) or ``x,y``. Output CSVs use 12
significant digits, ``.`` decimals and LF line endings, and every command
is a deterministic function of its flags (default seed 0x5EED_AE5F), so
re-running an echoed command reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import closedform, models, sensitivity
from .errors import AesfError, DomainError, ParseError, TieError, UnsupportedError
from .estimators import Dataset, FunctionalId, estimate

DEFAULT_SEED = 0x5EED_AE5F
_FMT = "{:.12g}"


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise DomainError("grid bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("grid needs x_min < x_max and y_min < y_max")
        if self.nx < 1 or self.ny < 1 or self.nx * self.ny > 10 ** 6:
            raise DomainError("grid must have 1 <= nx*ny <= 1e6 points")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def _read_dataset(path: str) -> Dataset:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ParseError(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if header == ["x", "y"]:
        bivariate = True
    elif header == ["x"]:
        bivariate = False
    else:
        raise ParseError(f"{path} must start with header 'x' or 'x,y', got {rows[0]!r}")
    xs, ys = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: unparseable value in {row!r}") from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(f"{path}:{lineno}: non-finite value in {row!r}")
        xs.append(vals[0])
        if bivariate:
            ys.append(vals[1])
    if len(xs) < 2:
        raise ParseError(f"{path} needs at least 2 data rows")
    return Dataset(np.array(xs), np.array(ys) if bivariate else None)


def _parse_model(spec: str) -> models.Model:
    if spec.upper() in ("A", "B", "C"):
        return models.scenario(spec)
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            text = Path(spec).read_text()
        except OSError as e:
            raise ParseError(f"cannot read model file {spec}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad model JSON: {e}") from None
    return models.model_from_json(obj)


def _parse_functional(args) -> FunctionalId:
    return FunctionalId(args.functional, g=args.g, phi=args.phi)


def _point(args, f: FunctionalId):
    if f.is_bivariate:
        if args.y is None:
            raise DomainError(f"functional {f.tag!r} needs both --x and --y")
        return (args.x, args.y)
    return args.x


def _functional_json(f: FunctionalId) -> dict:
    out = {"tag": f.tag}
    if f.tag == "phi_linear":
        out["g"] = f.g
        out["phi"] = f.phi
    return out


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_FMT.format(v) for v in row) + "\n")


def _say(args, message: str) -> None:
    """Human-readable output line; suppressed under --json (clean stdout)."""
    if not args.json:
        print(message)


# ---------------------------------------------------------------------------
# Command implementations: each returns the result payload dict
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> dict:
    f = _parse_functional(args)
    value = estimate(f, _read_dataset(args.csv))
    _say(args, f"{value:.10g}")
    return {"value": value}


def _cmd_sf(args) -> dict:
    f = _parse_functional(args)
    ds = _read_dataset(args.csv)
    value = sensitivity.sf(f, ds, _point(args, f))
    _say(args, f"{value:.10g}")
    return {"value": value}


def _cmd_esf(args) -> dict:
    f = _parse_functional(args)
    mc = sensitivity.esf_mc(f, args.model, args.n, _point(args, f),
                            args.replicates, args.seed)
    payload = {"value": mc.value, "std_error": mc.std_error,
               "replicates": mc.replicates, "n": mc.n, "seed": mc.seed,
               "tie_resamples": mc.tie_resamples}
    _say(args, f"esf {mc.value:.10g}  std_error {mc.std_error:.4g}  "
               f"(n={mc.n}, replicates={mc.replicates})")
    try:
        exact = closedform.esf_exact(f, args.model, args.x, args.n)
    except (UnsupportedError, DomainError):
        exact = None
    if exact is not None:
        payload["exact"] = exact
        _say(args, f"exact {exact:.10g}")
    return payload


def _figure_presets(figure: int, nx: int, ny: int):
    gauss = models.BivariateGaussian(0.7)
    square = GridSpec(-3.0, 3.0, -3.0, 3.0, nx, ny)
    if figure in (1, 2):
        f = FunctionalId("kendall" if figure == 1 else "spearman")
        return [(f, gauss, square, "")]
    if figure == 3:
        return [(None, gauss, square, "")]  # combined two-surface file
    jobs = []
    for name in ("A", "B", "C"):
        model = models.scenario(name)
        lo, hi = model.x_law.support()
        if isinstance(model.x_law, models.NormalLaw):
            lo, hi = -3.0, 3.0
        mean_y, sd_y = models.y_moments(model)
        grid = GridSpec(lo, hi, mean_y - 3.0 * sd_y, mean_y + 3.0 * sd_y, nx, ny)
        jobs.append((FunctionalId("chatterjee"), model, grid, f"_{name}"))
    return jobs


def _grid_values(f: FunctionalId, model, grid: GridSpec) -> list[tuple]:
    # row-major, y inner
    return [(x, y, closedform.aesf(closedform.AesfRequest(f, model, (x, y))))
            for x in grid.xs() for y in grid.ys()]


def _with_suffix(path: str, suffix: str) -> str:
    if not suffix:
        return path
    p = Path(path)
    return str(p.with_name(p.stem + suffix + p.suffix))


def _cmd_aesf_grid(args) -> dict:
    if args.figure is not None:
        # A figure fixes its own models, functionals and windows.
        ignored = [flag for flag, value in (
            ("--model", args.model), ("--functional", args.functional),
            ("--x-min", args.x_min), ("--x-max", args.x_max),
            ("--y-min", args.y_min), ("--y-max", args.y_max)) if value is not None]
        if ignored:
            raise ParseError(f"--figure {args.figure} takes no {', '.join(ignored)}")
        jobs = _figure_presets(args.figure, args.nx, args.ny)
    else:
        if args.model is None or args.functional is None:
            raise ParseError("aesf-grid needs either --figure or --model and --functional")
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if getattr(args, name) is None:
                raise ParseError(f"aesf-grid needs --{name.replace('_', '-')}")
        grid = GridSpec(args.x_min, args.x_max, args.y_min, args.y_max, args.nx, args.ny)
        jobs = [(_parse_functional(args), args.model, grid, "")]

    files = []
    for f, model, grid, suffix in jobs:
        out = _with_suffix(args.out, suffix)
        if f is None:  # figure 3: both rank correlations plus |.| difference
            if not closedform.is_supported("kendall", model):
                raise UnsupportedError("figure 3 needs a Gaussian model")
            kend = _grid_values(FunctionalId("kendall"), model, grid)
            spear = _grid_values(FunctionalId("spearman"), model, grid)
            rows = [(x, y, k, s, abs(k) - abs(s))
                    for (x, y, k), (_, _, s) in zip(kend, spear)]
            _write_csv(out, ["x", "y", "aesf_kendall", "aesf_spearman", "abs_diff"], rows)
        else:
            if not closedform.is_supported(f, model):
                raise UnsupportedError(
                    f"no closed form for {f.tag!r} under {type(model).__name__}")
            _write_csv(out, ["x", "y", "aesf"],
                       _grid_values(f, model, grid))
        files.append(out)
        _say(args, f"wrote {out}")
    return {"files": files}


def _cmd_converge(args) -> dict:
    f = _parse_functional(args)
    schedule = [int(s) for s in args.schedule.split(",")]
    curve = sensitivity.convergence_study(f, args.model, _point(args, f), schedule,
                                          args.replicates, args.seed)
    with open(args.out, "w", newline="") as fh:
        fh.write("n,esf,std_error,target\n")
        target = "" if curve.target is None else _FMT.format(curve.target)
        for n, mc in zip(curve.schedule, curve.estimates):
            fh.write(f"{n},{_FMT.format(mc.value)},{_FMT.format(mc.std_error)},{target}\n")
    _say(args, f"wrote {args.out}")
    return {"file": args.out,
            "target": curve.target,
            "esf": [mc.value for mc in curve.estimates]}


def _cmd_sfdist(args) -> dict:
    f = _parse_functional(args)
    values = sensitivity.sf_distribution(f, args.model, args.n, _point(args, f),
                                         args.replicates, args.seed)
    with open(args.out, "w", newline="") as fh:
        fh.write("sf\n")
        for v in values:
            fh.write(_FMT.format(v) + "\n")
    _say(args, f"wrote {args.out}")
    return {"file": args.out, "replicates": int(values.size)}


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------

def _add_functional_flags(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--functional", required=required,
                   choices=["mean", "variance", "uniform_max", "kendall",
                            "spearman", "chatterjee", "phi_linear"])
    p.add_argument("--g", default="identity", choices=["identity", "square"],
                   help="inner map for phi_linear")
    p.add_argument("--phi", default="identity", choices=["identity", "square", "sine"],
                   help="outer map for phi_linear")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; every command runs single-threaded")
    p.add_argument("--json", action="store_true", help="print a JSON run report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aesf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="evaluate a functional on a CSV dataset")
    p.add_argument("csv")
    _add_functional_flags(p)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("sf", help="add-one-point sensitivity on a CSV dataset")
    p.add_argument("csv")
    _add_functional_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_sf)

    p = sub.add_parser("esf", help="finite-n expected sensitivity by Monte Carlo")
    p.add_argument("--model", required=True,
                   help="inline JSON, a JSON file path, or scenario A|B|C")
    _add_functional_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float)
    p.add_argument("--replicates", type=int, default=1000)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_esf)

    p = sub.add_parser("aesf-grid", help="closed-form AESF surface as CSV")
    p.add_argument("--model", help="inline JSON, a JSON file path, or scenario A|B|C")
    _add_functional_flags(p, required=False)
    p.add_argument("--figure", type=int, choices=[1, 2, 3, 4],
                   help="preset surfaces: 1 Kendall and 2 Spearman under the "
                        "rho=0.7 Gaussian, 3 their comparison, 4 Chatterjee "
                        "under scenarios A, B, C (three files)")
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--y-min", type=float, dest="y_min")
    p.add_argument("--y-max", type=float, dest="y_max")
    p.add_argument("--nx", type=int, default=41)
    p.add_argument("--ny", type=int, default=41)
    p.add_argument("--out", required=True)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_aesf_grid)

    p = sub.add_parser("converge", help="ESF along an n schedule, as CSV")
    p.add_argument("--model", required=True)
    _add_functional_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float)
    p.add_argument("--schedule", default="50,100,200,400,800,1600")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--out", required=True)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_converge)

    p = sub.add_parser("sfdist", help="raw SF replicate values, one per row")
    p.add_argument("--model", required=True)
    _add_functional_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float)
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--out", required=True)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_sfdist)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        # Parsed once: the run and the --json report use the same model.
        if getattr(args, "model", None) is not None:
            args.model = _parse_model(args.model)
        payload = args.run(args)
    except TieError as e:
        print(f"error: ties: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"error: parse: {e}", file=sys.stderr)
        return 2
    except UnsupportedError as e:
        print(f"error: unsupported: {e}", file=sys.stderr)
        return 4
    except (AesfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.json:
        model = getattr(args, "model", None)
        report = {
            "command": "aesf " + " ".join(shlex.quote(a) for a in argv),
            "model": None if model is None else models.model_to_json(model),
            "functional": (_functional_json(_parse_functional(args))
                           if getattr(args, "functional", None) else None),
            "seed": getattr(args, "seed", DEFAULT_SEED),
            "wall_time_s": time.perf_counter() - started,
            "result": payload,
        }
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
