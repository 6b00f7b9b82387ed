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
import functools
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
from .estimators import Dataset, FunctionalId, dense_ranks, estimate

DEFAULT_SEED = 0x5EED_AE5F
_FMT = "%.12g"

#: Most CSV lines assembled in one byte buffer at once.
_CHUNK_ROWS = 1024

#: Most CSV rows whose distinct floats share one formatted vocabulary. It
#: bounds the writer's memory whatever the row count; it is not a user option.
#: A figure grid up to 181x181 fits in one block, so the symmetric duplicates
#: of its surfaces, thousands of rows apart, are formatted once.
_VOCAB_ROWS = 1 << 16

#: Longest ``_FMT`` string of a float64: "-4.94065645841e-324".
_CELL_BYTES = 19

#: Most distinct floats formatted in one pass: the pass's temporaries, about
#: two dozen arrays of this length, stay in the CPU cache, and the floats it
#: leaves to CPython are formatted into one string.
_FORMAT_SLICE = 4096

#: A slice of fewer floats goes to CPython whole: one ``%`` call formats
#: about 200 floats in the 50 us that a numpy pass costs at any size, and a
#: process that writes only small files never builds the lookup tables.
_FORMAT_MIN = 256

#: A float whose value scaled to 12 integer digits lies within this margin
#: of a half-integer goes to CPython, which breaks ties half to even. The
#: scaling errs by at most 2^-14, so the margin leaves room to spare.
_TIE_MARGIN = 2.0 ** -9

#: A cell as little-endian words over its bytes 0-7, 8-15 and 16-19.
_CELL_WORDS = np.dtype({"names": ["w0", "w1", "w2"], "formats": ["<u8", "<u8", "<u4"],
                        "offsets": [0, 8, 16], "itemsize": _CELL_BYTES + 1})


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


def _vocabulary(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's distinct float64 bit patterns in ascending order, as
    floats, and each row's index among them.

    Patterns, not float values: equality would merge -0.0 with 0.0, which
    print as "-0" and "0".
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    patterns, index = dense_ranks(bits)
    return patterns.view(np.float64), index


def _byte_mask(count) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of a 128-bit mask over the first ``count``
    bytes. numpy defines a shift by 64 bits or more as giving 0."""
    bits = 8 * np.asarray(count, dtype=np.uint64)
    one = np.uint64(1)
    return (one << np.minimum(bits, 64)) - one, (one << np.maximum(bits, 64) - 64) - one


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of ``_positional_cells``, built on its first call.

    ``digits[g]`` holds the four ASCII digits of g < 10^4 in a word, the
    first digit in the lowest byte, and ``zeros[g]`` counts g's trailing
    zeros (4 for 0). The other tables are indexed by the template
    208 sign + 13 (x + 4) + n of a cell with decimal exponent x in
    [-4, 11] and n in [0, 12] digits left once trailing zeros are dropped:
    the masks of the digits that stay in place (``keep``) and of those that
    move one byte up to make room for the point (``move``), the sign, "0.",
    leading zeros and point (``prefix``), and the bit shift that puts the
    digits behind the sign and leading zeros (``shift``).
    """
    chars = np.arange(10, dtype=np.uint64) + ord("0")
    digits = (chars[:, None, None, None] | chars[:, None, None] << 8
              | chars[:, None] << 16 | chars << 24).ravel()
    zero = np.arange(10) == 0
    zeros = (zero * (1 + zero[:, None] * (1 + zero[:, None, None]
                                          * (1 + zero[:, None, None, None])))).ravel()
    sign, x, n = np.ix_(np.arange(2, dtype=np.uint64), np.arange(-4, 12),
                        np.arange(13, dtype=np.uint64))
    small = x < 0  # "0." and -x - 1 zeros, then n digits
    whole = np.where(small, 0, x + 1).astype(np.uint64)  # digits before the point
    point = ~small & (n > whole)
    keep = _byte_mask(np.where(small, n, whole))
    move = [np.where(point, a & ~b, 0) for a, b in zip(_byte_mask(n + 1), _byte_mask(whole + 1))]
    lead = sign + np.where(small, 1 - x, 0).astype(np.uint64)  # bytes before the digits
    at = lead + whole  # the point's byte
    dot = [np.where(point, a ^ b, 0) & ord(".") * 0x0101010101010101
           for a, b in zip(_byte_mask(at + 1), _byte_mask(at))]
    small_lead = int.from_bytes(b"0.000", "little") & _byte_mask(lead - sign)[0]
    prefix = (sign * ord("-") | small_lead << 8 * sign | dot[0], dot[1])
    table = lambda a: np.broadcast_to(a, (2, 16, 13)).ravel().astype(np.uint64)
    return (digits, zeros, 10.0 ** np.arange(16), *map(table, (*keep, *move, *prefix, 8 * lead)))


def _positional_cells(floats: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write the ``_FMT`` cell of each float whose text is positional, with
    a decimal exponent in [-4, 11], into ``cells``; return the mask of the
    floats written.

    k = 11 - floor(log10|v|), clipped to [0, 15], scales |v| by an exact
    power of ten. The product s lies below 2^40, so its one rounding leaves
    it within 2^-14 of the exact scaled value. When 10^11 <= s <= 10^12 and
    s lies farther than ``_TIE_MARGIN`` from a half-integer, rint(s) is the
    12-digit integer that CPython's correctly rounded conversion gives, at
    exponent 11 - k; s = 10^12 carries into the next decade. The text is
    then built from lookups on uint64 words. Every other float (zero, inf,
    NaN, exponent form, near ties) is left to the caller.
    """
    digits, zeros, pow10, keep_lo, keep_hi, move_lo, move_hi, prefix_lo, prefix_hi, shift = (
        _format_tables())
    a = np.abs(floats)
    # Zero, inf and NaN give garbage here, which the tests on s reject.
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (11.0 - np.floor(np.log10(a))).astype(np.intp)
        np.clip(k, 0, 15, out=k)
        s = pow10[k] * a
        m = np.rint(s)
        done = np.abs(s - m) < 0.5 - _TIE_MARGIN
    done &= s >= 1e11
    done &= s <= 1e12
    done &= a < 999_999_999_999.5
    # Rejected floats get a dummy value, so that every lookup stays in range.
    m = np.where(done, m, 1e11)
    carry = m == 1e12
    m[carry] = 1e11
    k -= carry
    m = m.astype(np.int64)
    g0 = m // 10 ** 8
    m -= g0 * 10 ** 8
    g1 = m // 10 ** 4
    g2 = m - g1 * 10 ** 4
    # The 12 digits as ASCII: bytes 0-7 in lo, 8-11 in hi.
    lo = digits[g1] << 32
    lo |= digits[g0]
    hi = digits[g2]
    trailing = zeros[g0] * (g1 == 0)
    trailing += zeros[g1]
    trailing *= g2 == 0
    trailing += zeros[g2]
    template = np.where(np.signbit(floats), 415, 207)  # 13 * 15 + 12, plus 208 if negative
    template -= 13 * k
    template -= trailing
    # The digits that follow the point move up one byte.
    moved_hi = hi << 8
    moved_hi |= lo >> 56
    moved_hi &= move_hi[template]
    hi &= keep_hi[template]
    hi |= moved_hi
    moved_lo = lo << 8
    moved_lo &= move_lo[template]
    lo &= keep_lo[template]
    lo |= moved_lo
    # Then all of them move behind the sign, "0." and leading zeros.
    bits = shift[template]
    back = 64 - bits
    words = cells.view(_CELL_WORDS)
    words["w0"] = prefix_lo[template] | lo << bits
    words["w1"] = prefix_hi[template] | hi << bits | lo >> back
    words["w2"] = hi >> back
    return done


def _cells(columns: list[np.ndarray]) -> np.ndarray:
    """The floats of ``columns``, one column after the other, as fixed-width
    cells: each formatted with ``_FMT``, NUL-padded to ``_CELL_BYTES`` and
    followed by "," or, in the last column, a newline.

    Per slice of ``_FORMAT_SLICE`` floats, ``_positional_cells`` writes the
    cells it can prove equal to CPython's, and one ``%`` call formats the
    rest (the whole slice, below ``_FORMAT_MIN`` floats).
    """
    floats = np.concatenate(columns)
    cells = np.empty(len(floats), dtype=f"S{_CELL_BYTES + 1}")
    for start in range(0, len(floats), _FORMAT_SLICE):
        part = floats[start:start + _FORMAT_SLICE]
        done = (_positional_cells(part, cells[start:start + len(part)])
                if len(part) >= _FORMAT_MIN else np.zeros(len(part), dtype=bool))
        rest = start + np.flatnonzero(~done)
        if len(rest):
            values = floats[rest].tolist()
            text = "\n".join([_FMT] * len(values)) % tuple(values)
            cells[rest] = text.encode().split(b"\n")
    separators = cells.view(np.uint8).reshape(-1, _CELL_BYTES + 1)[:, _CELL_BYTES]
    separators[:] = ord(",")
    separators[len(cells) - len(columns[-1]):] = ord("\n")
    return cells


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """Rows of floats as ``_FMT`` cells under a header line.

    Per block of ``_VOCAB_ROWS`` rows, each distinct float of a column is
    formatted once, into one table of cells that carry their separator,
    and each row gets the int32 index of its cell in every column. A chunk
    of ``_CHUNK_ROWS`` lines is then one gather from that table, and
    dropping the cells' NUL padding leaves the text.
    """
    ncols = len(header)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in range(0, len(rows), _VOCAB_ROWS):
            part = rows[block:block + _VOCAB_ROWS]
            index = np.empty((len(part), ncols), dtype=np.int32)
            columns = []
            for j in range(ncols):
                floats, positions = _vocabulary(part[:, j])
                np.add(positions, sum(map(len, columns)), out=index[:, j])
                columns.append(floats)
            table = _cells(columns)
            for start in range(0, len(part), _CHUNK_ROWS):
                lines = table[index[start:start + _CHUNK_ROWS]].tobytes()
                fh.write(lines.translate(None, b"\0"))


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


def _grid_values(f: FunctionalId, model, grid: GridSpec) -> np.ndarray:
    """(x, y, aesf) rows over the grid, row-major with y inner."""
    xs, ys = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    points = np.column_stack((xs.ravel(), ys.ravel()))
    return np.column_stack((points, closedform.aesf_many(f, model, points)))


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
            kend = _grid_values(FunctionalId("kendall"), model, grid)
            spear = _grid_values(FunctionalId("spearman"), model, grid)[:, 2:]
            rows = np.hstack((kend, spear, np.abs(kend[:, 2:]) - np.abs(spear)))
            _write_csv(out, ["x", "y", "aesf_kendall", "aesf_spearman", "abs_diff"], rows)
        else:
            if not closedform.is_supported(f, model):
                raise UnsupportedError(
                    f"no closed form for {f.tag!r} under {type(model).__name__}")
            _write_csv(out, ["x", "y", "aesf"], _grid_values(f, model, grid))
        files.append(out)
        _say(args, f"wrote {out}")
    return {"files": files}


def _cmd_converge(args) -> dict:
    f = _parse_functional(args)
    schedule = []
    for entry in args.schedule.split(","):
        try:
            schedule.append(int(entry))
        except ValueError:
            raise ParseError(f"--schedule entry {entry!r} is not an integer") from None
    curve = sensitivity.convergence_study(f, args.model, _point(args, f), schedule,
                                          args.replicates, args.seed)
    with open(args.out, "w", newline="") as fh:
        fh.write("n,esf,std_error,target\n")
        target = "" if curve.target is None else _FMT % curve.target
        for n, mc in zip(curve.schedule, curve.estimates):
            fh.write(f"{n},{_FMT % mc.value},{_FMT % mc.std_error},{target}\n")
    _say(args, f"wrote {args.out}")
    return {"file": args.out,
            "target": curve.target,
            "esf": [mc.value for mc in curve.estimates],
            # Not "std_error" and "tie_resamples": perfbench reads those keys
            # as one command's numbers.
            "std_error_per_n": [mc.std_error for mc in curve.estimates],
            "tie_resamples_per_n": [mc.tie_resamples for mc in curve.estimates]}


def _cmd_sfdist(args) -> dict:
    f = _parse_functional(args)
    values = sensitivity.sf_distribution(f, args.model, args.n, _point(args, f),
                                         args.replicates, args.seed)
    _write_csv(args.out, ["sf"], values[:, None])
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
