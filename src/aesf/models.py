"""Data-generating laws with samplable joints and analytic conditional structure.

Every model here exposes three things the rest of the package needs:
deterministic sampling from a counter-based stream, the conditional
survival P(Y > y | X = x) in closed form, and quadrature rules for
expectations over the marginals.

Bivariate models answer one protocol of four attributes: ``x_law``;
``y_law``, the y marginal when it has a closed form, else None; ``link``,
the regression function g of Y = g(X) + noise_sigma * Z, or None when Y
does not depend on X; and ``noise_sigma``. Univariate models answer a
``law`` and an affine ``loc`` and ``scale`` (the variable is loc + scale V,
V from the law). Functions below read these attributes, not the class.

Randomness contract: ``sample(model, n, seed)`` is a pure function of its
arguments. The seed keys a Philox4x64-10 generator whose raw 64-bit words,
shifted right by 11, give 53-bit integers k, n for x and then n for y or the
noise; each law maps them to values in one place (``from_bits``): uniforms
are a + (b - a) k 2^-53, normals the inverse CDF at (k + 1/2) 2^-53, or at
1 - 2^-53 for the top k = 2^53 - 1, where that rounds to 1. Streams
are keyed, never chained. A replicate's key is ``derive_seeds``' hash of
(seed, replicate, attempt), computed for many replicates at once, and
``derive_seed`` is its one-replicate case. ``sample`` is the one-key case of
the draw (``_draw``) that ``sample_batches`` makes for many replicate keys at
once, from the kernel ``_philox_raw`` for short streams, else from numpy's
compiled Philox (``_philox_loop``). That is built on first use, so that
``numpy.random`` loads only in a process that draws a long stream or calls
``sample``.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ._special import ndtr, ndtri
from .errors import DomainError, ParseError, UnsupportedError
from .estimators import Dataset
from .numerics import NORMAL_TAIL, _leggauss, clamp_probability, hermite_rule, normal_pdf

__all__ = [
    "NormalLaw",
    "UniformLaw",
    "Link",
    "BivariateGaussian",
    "AdditiveNoise",
    "UniformMax",
    "UnivariateNormal",
    "IndependentProduct",
    "Model",
    "scenario",
    "is_bivariate",
    "model_to_json",
    "model_from_json",
    "derive_seed",
    "derive_seeds",
    "sample",
    "sample_batches",
    "conditional_survival",
    "marginal_cdf_x",
    "marginal_cdf_y",
    "expect_y_prime",
]

_MASK32 = (1 << 32) - 1
_UNIT = 2.0 ** -53
_BELOW_ONE = 1.0 - _UNIT
_TWO_PI = 2.0 * math.pi

#: Half-width, in units of the conditional noise scale, of the region around
#: a level where a conditional-CDF kernel actually varies. ndtr saturates to
#: double precision beyond ~8.3 scales; 13 leaves comfortable margin.
FEATURE_HALF_WIDTH = 13.0

#: Half-width of the outer X' rules of expectations over Y' = g(X') +
#: noise_sigma Z': a kernel's transition region plus the normal tail of Z'.
Y_PRIME_HALF_WIDTH = FEATURE_HALF_WIDTH + NORMAL_TAIL + 1.0


# ---------------------------------------------------------------------------
# Marginal laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalLaw:
    """Standard normal marginal."""

    def cdf(self, t):
        return ndtr(np.asarray(t, dtype=float))

    def pdf(self, t):
        return normal_pdf(t)

    def support(self) -> tuple[float, float]:
        # Truncation for quadrature only; the lost mass is ~1e-17.
        return (-NORMAL_TAIL, NORMAL_TAIL)

    def max_panel(self) -> float:
        return 3.0

    def moments(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def from_bits(self, k: np.ndarray) -> np.ndarray:
        # Inverse CDF on (k + 1/2) / 2^53 uniforms, kept strictly inside
        # (0, 1): (2^53 - 1) + 1/2 rounds to 2^53, so the top word alone
        # takes the largest double below 1 in place of 1 (where ndtri is inf).
        u = (k + 0.5) * _UNIT
        np.minimum(u, _BELOW_ONE, out=u)
        return ndtri(u, out=u)


@dataclass(frozen=True)
class UniformLaw:
    """Uniform marginal on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"uniform law needs finite a < b, got [{self.a}, {self.b}]")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.a) & (t <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def max_panel(self) -> float:
        return (self.b - self.a) / 4.0

    def moments(self) -> tuple[float, float]:
        return (0.5 * (self.a + self.b), (self.b - self.a) / math.sqrt(12.0))

    def from_bits(self, k: np.ndarray) -> np.ndarray:
        # k / 2^53 is the value of Generator.random() on the same raw word.
        # It is +0.0 or more, so on [0, 1] the affine map is the identity.
        u = k * _UNIT
        return u if (self.a, self.b) == (0.0, 1.0) else self.a + (self.b - self.a) * u


Law = Union[NormalLaw, UniformLaw]


# ---------------------------------------------------------------------------
# Named link functions (closed set, so conditional laws stay analytic)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """Named regression function g for additive-noise models.

    ``linear`` (g(t) = c t, c may be 0, which makes Y independent of X),
    ``square`` (g(t) = t^2) or ``cos2pi`` (g(t) = cos(2 pi t)).
    """

    name: str
    c: Optional[float] = None

    def __post_init__(self):
        if self.name not in ("linear", "square", "cos2pi"):
            raise DomainError(f"unknown link {self.name!r}")
        if self.name == "linear":
            if self.c is None or not math.isfinite(self.c):
                raise DomainError("linear link requires a finite coefficient c")
        elif self.c is not None:
            raise DomainError(f"link {self.name!r} takes no coefficient")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.name == "linear":
            return self.c * t
        if self.name == "square":
            return t * t
        return np.cos(_TWO_PI * t)

    def preimage(self, lo, hi, xlo: float, xhi: float) -> np.ndarray:
        """Ends of the intervals of [xlo, xhi] on which g takes values in [lo, hi].

        Vectorized over ``lo`` and ``hi``: the result has one more axis, of a
        length fixed by the link and the x range, and NaN marks the ends of
        intervals that are empty for that window.
        """
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        if self.name == "linear":
            if self.c == 0.0:
                # g is constant: the preimage is all of [xlo, xhi] or empty,
                # so it has no end strictly inside the x range.
                return np.empty(lo.shape + (0,))
            return np.stack((lo / self.c, hi / self.c), axis=-1)
        if self.name == "square":
            empty = hi < 0.0
            r_lo = np.sqrt(np.where(empty, np.nan, np.maximum(lo, 0.0)))
            r_hi = np.sqrt(np.where(empty, np.nan, hi))
            return np.stack((-r_hi, -r_lo, r_lo, r_hi), axis=-1)
        # cos2pi: invert per monotone half-period branch [k/2, (k+1)/2]
        v_lo, v_hi = np.maximum(lo, -1.0), np.minimum(hi, 1.0)
        empty = v_lo > v_hi
        v_lo, v_hi = np.where(empty, np.nan, v_lo), np.where(empty, np.nan, v_hi)
        k = np.arange(math.floor(2 * xlo) - 1, math.ceil(2 * xhi) + 1)
        start = 0.5 * k
        even = k % 2 == 0  # even k: decreasing branch, +1 down to -1
        first = np.where(even, np.arccos(v_hi)[..., None], np.arccos(-v_lo)[..., None])
        second = np.where(even, np.arccos(v_lo)[..., None], np.arccos(-v_hi)[..., None])
        return np.concatenate((first / _TWO_PI + start, second / _TWO_PI + start), axis=-1)


# ---------------------------------------------------------------------------
# Model variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BivariateGaussian:
    """Standard bivariate normal with correlation strictly inside (-1, 1).

    It is the additive-noise law Y = rho X + sqrt(1 - rho^2) Z with X and Z
    independent standard normals, whose y marginal is again standard normal.
    """

    rho: float
    x_law = y_law = NormalLaw()

    def __post_init__(self):
        if not math.isfinite(self.rho) or not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie strictly inside (-1, 1), got {self.rho}")

    @property
    def link(self) -> Link:
        return Link("linear", self.rho)

    @property
    def noise_sigma(self) -> float:
        return math.sqrt(1.0 - self.rho ** 2)


@dataclass(frozen=True)
class AdditiveNoise:
    """Y = g(X) + noise_sigma * Z with Z ~ N(0,1) independent of X."""

    x_law: Law
    link: Link
    noise_sigma: float
    y_law = None  # no closed form

    def __post_init__(self):
        if not math.isfinite(self.noise_sigma) or self.noise_sigma <= 0.0:
            raise DomainError("noise_sigma must be positive")


@dataclass(frozen=True)
class UniformMax:
    """Univariate U[0, theta]: theta times a standard uniform."""

    theta: float
    law, loc = UniformLaw(0.0, 1.0), 0.0
    scale = property(lambda self: self.theta)

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta <= 0.0:
            raise DomainError("theta must be positive")


@dataclass(frozen=True)
class UnivariateNormal:
    """Univariate N(mu, sigma^2): mu plus sigma times a standard normal."""

    mu: float
    sigma: float
    law = NormalLaw()
    loc, scale = property(lambda self: self.mu), property(lambda self: self.sigma)

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)) or self.sigma <= 0.0:
            raise DomainError("need finite mu and sigma > 0")


@dataclass(frozen=True)
class IndependentProduct:
    """Independent marginals: the null model for every rank correlation."""

    x_law: Law
    y_law: Law
    link = noise_sigma = None  # Y does not depend on X


Model = Union[BivariateGaussian, AdditiveNoise, UniformMax, UnivariateNormal,
              IndependentProduct]

_SCENARIOS = {
    "A": lambda: AdditiveNoise(NormalLaw(), Link("linear", 0.7), math.sqrt(1.0 - 0.7 ** 2)),
    "B": lambda: AdditiveNoise(UniformLaw(-10.0, 10.0), Link("square"), math.sqrt(10.0)),
    "C": lambda: AdditiveNoise(UniformLaw(-1.0, 1.0), Link("cos2pi"), 0.5),
}


def scenario(name: str) -> AdditiveNoise:
    """The three reference correlation patterns: A linear, B quadratic, C sinusoid."""
    try:
        return _SCENARIOS[name.upper()]()
    except KeyError:
        raise DomainError(f"unknown scenario {name!r}; choose A, B or C") from None


def is_bivariate(model: Model) -> bool:
    return hasattr(model, "x_law")


# ---------------------------------------------------------------------------
# JSON serialization (field names are part of the CLI contract)
# ---------------------------------------------------------------------------

def _law_to_json(law: Law) -> dict:
    if isinstance(law, NormalLaw):
        return {"name": "normal"}
    return {"name": "uniform", "a": law.a, "b": law.b}


def _law_from_json(obj) -> Law:
    if not isinstance(obj, dict) or "name" not in obj:
        raise ParseError(f"law must be an object with a 'name' field, got {obj!r}")
    if obj["name"] == "normal":
        return NormalLaw()
    if obj["name"] == "uniform":
        try:
            return UniformLaw(float(obj["a"]), float(obj["b"]))
        except KeyError as e:
            raise ParseError(f"uniform law missing field {e}") from None
    raise ParseError(f"unknown law name {obj['name']!r}")


def _link_to_json(link: Link) -> dict:
    out = {"name": link.name}
    if link.c is not None:
        out["c"] = link.c
    return out


def _link_from_json(obj) -> Link:
    if not isinstance(obj, dict) or "name" not in obj:
        raise ParseError(f"link must be an object with a 'name' field, got {obj!r}")
    c = obj.get("c")
    return Link(obj["name"], None if c is None else float(c))


def model_to_json(model: Model) -> dict:
    if isinstance(model, BivariateGaussian):
        return {"variant": "bivariate_gaussian", "rho": model.rho}
    if isinstance(model, AdditiveNoise):
        return {"variant": "additive_noise", "x_law": _law_to_json(model.x_law),
                "link": _link_to_json(model.link), "noise_sigma": model.noise_sigma}
    if isinstance(model, UniformMax):
        return {"variant": "uniform_max", "theta": model.theta}
    if isinstance(model, UnivariateNormal):
        return {"variant": "univariate_normal", "mu": model.mu, "sigma": model.sigma}
    if isinstance(model, IndependentProduct):
        return {"variant": "independent_product", "x_law": _law_to_json(model.x_law),
                "y_law": _law_to_json(model.y_law)}
    raise DomainError(f"not a model: {model!r}")


def model_from_json(obj) -> Model:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ParseError("model JSON must be an object with a 'variant' field")
    variant = obj["variant"]
    try:
        if variant == "bivariate_gaussian":
            return BivariateGaussian(float(obj["rho"]))
        if variant == "additive_noise":
            return AdditiveNoise(_law_from_json(obj["x_law"]),
                                 _link_from_json(obj["link"]),
                                 float(obj["noise_sigma"]))
        if variant == "uniform_max":
            return UniformMax(float(obj["theta"]))
        if variant == "univariate_normal":
            return UnivariateNormal(float(obj["mu"]), float(obj["sigma"]))
        if variant == "independent_product":
            return IndependentProduct(_law_from_json(obj["x_law"]),
                                      _law_from_json(obj["y_law"]))
    except KeyError as e:
        raise ParseError(f"model JSON missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad model JSON: {e}") from None
    raise ParseError(f"unknown model variant {variant!r}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _key_word(value, what: str, bits: int) -> int:
    """A seed (64 bits) or a replicate or attempt index (32 bits) as an int;
    streams are keyed by those bits, so a wider, negative or non-integer
    value (1.5, "3") would alias another stream and is rejected."""
    try:
        word = operator.index(value)
    except TypeError:
        word = None
    if word is None or not 0 <= word < 1 << bits:
        raise DomainError(f"{what} must lie in [0, 2^{bits}), got {value!r}")
    return word


def _count(value, what: str, least: int) -> int:
    """A sample size or replicate count as an int of at least ``least``; a
    float would reach numpy's shape arguments and raise a bare TypeError."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return count


def derive_seed(seed: int, replicate: int, attempt: int = 0) -> int:
    """64-bit stream seed for one replicate, independent of all others.

    The one-replicate case of ``derive_seeds``. Hashing (seed, replicate,
    attempt) keeps replicate streams uncoupled, so a Monte Carlo run can draw
    its replicates in any order or in batches and still aggregate
    deterministically. The replicate and the attempt must be integers in
    [0, 2^32); the seed an integer in [0, 2^64).
    """
    return int(derive_seeds(seed, [_key_word(replicate, "replicate", 32)], attempt)[0])


# The hash constants of numpy's seed sequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hasher(init: int, mult: int):
    """The seed sequence's ``hashmix`` on uint32 arrays: each call advances the
    hash constant, which depends only on the number of calls so far."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def derive_seeds(seed: int, replicates, attempt: int = 0) -> np.ndarray:
    """The stream seed of every replicate index r in ``replicates`` at
    ``attempt``: the first 64-bit state word of numpy's seed sequence on the
    entropy [seed, r, attempt].

    Runs numpy's seed-sequence entropy mixing and state generation in uint32
    array arithmetic, one lane per replicate. The entropy words are the
    seed's one or two little-endian 32-bit words, r and the attempt, so they
    never outnumber the pool and r and the attempt must be below 2^32.
    """
    seed = _key_word(seed, "seed", 64)
    r = np.asarray(replicates)
    if r.size and (r.dtype.kind not in "iu" or r.min() < 0 or r.max() > _MASK32):
        raise DomainError("replicate indices must be integers in [0, 2^32)")
    attempt = _key_word(attempt, "attempt", 32)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = words + [r, attempt]
    zeros = np.zeros(r.shape, dtype=np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(zeros + np.uint32(entropy[i]) if i < len(entropy) else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> 16)
    state = _hasher(_INIT_B, _MULT_B)
    low, high = state(pool[0]), state(pool[1])
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


# Philox4x64-10's multipliers and Weyl key increments (Salmon et al., SC'11),
# as (2, 1, 1) columns: row 0 acts on the words x0 and k0, row 1 on x2 and k1.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _mulhilo(m, b, hi=None, lo=None, t=None, u=None):
    """High and low 64-bit words of m * b, in 15 array passes, written into
    ``hi`` and ``lo`` with ``t`` and ``u`` as scratch (each made if None).

    With m = m_hi 2^32 + m_lo and b alike, q = m_hi b_lo + (m_lo b_lo >> 32)
    and r = m_lo b_hi + (q & (2^32 - 1)) are below 2^64, and the high word
    is m_hi b_hi + (q >> 32) + (r >> 32).
    """
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    t = np.bitwise_and(b, _LOW32, out=t)
    u = np.multiply(m_lo, t, out=u)
    np.right_shift(u, _SHIFT32, out=u)
    np.multiply(m_hi, t, out=t)
    np.add(t, u, out=t)                          # q
    np.right_shift(b, _SHIFT32, out=u)
    hi = np.multiply(m_hi, u, out=hi)
    np.multiply(m_lo, u, out=u)
    lo = np.right_shift(t, _SHIFT32, out=lo)     # lo is scratch until the end
    np.add(hi, lo, out=hi)
    np.bitwise_and(t, _LOW32, out=t)
    np.add(u, t, out=u)                          # r
    np.right_shift(u, _SHIFT32, out=u)
    np.add(hi, u, out=hi)
    return hi, np.multiply(m, b, out=lo)


def _philox_raw(keys, count: int) -> np.ndarray:
    """The first ``count`` words of ``np.random.Philox(key=k).random_raw()``
    for each k in ``keys``, as a (len(keys), count) uint64 array.

    Philox4x64-10 with key (k0, k1) = (k, 0) encrypts the counters
    (c, 0, 0, 0) for c = 1, 2, ...; block c gives the words 4(c - 1) .. 4c - 1.
    A round maps (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2),
    hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)), and the key gains the Weyl increments
    before rounds 2 .. 10. Round 1 multiplies the counter alone, and round 2
    the key (x0 = k) and a word of the counter (x2), so only rounds 3 .. 10
    run on (keys, blocks) arrays. These hold x0 and x2 as the rows of one
    array and x1 and x3 of another, so that each pass serves both products.
    """
    k = np.asarray(keys, dtype=np.uint64)
    blocks = -(-count // 4)
    (m0, m1), (w0, w1) = _PHILOX_M.ravel(), _PHILOX_W.ravel()
    # Round 1 on (c, 0, 0, 0) with key (k, 0) gives (k, 0, hi_c, lo_c).
    hi_c, lo_c = _mulhilo(m0, np.arange(1, blocks + 1, dtype=np.uint64))
    # Round 2, key (k + W0, W1): M0 multiplies the keys, M1 the counter word.
    hi_k, lo_k = _mulhilo(m0, k)
    hi_cc, lo_cc = _mulhilo(m1, hi_c)
    even, odd, spare, hi, t, u, key = np.empty((7, 2, len(k), blocks), dtype=np.uint64)
    key[0], key[1] = (k + w0)[:, None], w1
    np.bitwise_xor(hi_cc, key[0], out=even[0])
    np.bitwise_xor((hi_k ^ w1)[:, None], lo_c, out=even[1])
    odd[0], odd[1] = lo_cc, lo_k[:, None]
    for _ in range(8):
        key += _PHILOX_W
        # The low words go in reversed, as the next round's (x1, x3).
        _mulhilo(_PHILOX_M, even, hi, spare[::-1], t, u)
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= key
        odd, spare = spare, odd
    words = np.empty((len(k), blocks, 2, 2), dtype=np.uint64)
    words[..., 0], words[..., 1] = even.transpose(1, 2, 0), odd.transpose(1, 2, 0)
    return words.reshape(len(k), 4 * blocks)[:, :count]


#: The one compiled bit generator of ``_philox_loop``, whose state each key
#: overwrites whole; the lock keeps a key's state and its words together. It
#: is built on the first call, so only a process that draws through it
#: loads ``numpy.random`` (notes/decisions.md).
_BITGEN, _BITGEN_LOCK = None, threading.Lock()


def _philox_loop(keys, count: int) -> np.ndarray:
    """``_philox_raw(keys, count)`` from numpy's compiled Philox, set to key
    (k, 0), counter 0 and an empty buffer per key: the state of Philox(key=k)
    without the OS-entropy seed sequence that constructor builds and drops."""
    global _BITGEN
    zeros, key = np.zeros(4, dtype=np.uint64), np.zeros(2, dtype=np.uint64)
    # The setter copies the arrays, so one dict serves every key.
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    words = np.empty((len(keys), count), dtype=np.uint64)
    with _BITGEN_LOCK:
        if _BITGEN is None:
            _BITGEN = np.random.Philox(0)
        for row, k in zip(words, np.asarray(keys, dtype=np.uint64).tolist()):
            key[0] = k
            _BITGEN.state = state
            row[:] = _BITGEN.random_raw(count)
    return words


#: Longest per-key stream that ``_raw_words`` draws with ``_philox_raw``, whose
#: cost per key grows faster with the stream length than the compiled loop's.
_KERNEL_MAX_WORDS = 72


def _raw_words(keys: np.ndarray, count: int) -> np.ndarray:
    """The cheaper word route at this stream length (notes/decisions.md)."""
    return (_philox_raw if count <= _KERNEL_MAX_WORDS else _philox_loop)(keys, count)


def _from_bits(model: Model, bits: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sample values from 53-bit integers ``bits`` of shape (streams, ..., n):
    stream 0 gives x (or the single variable), stream 1 y or the noise."""
    if hasattr(model, "law"):
        # Skipping loc = 0 and scale = 1 leaves every bit: 1 * v is v, and
        # 0 + v is v unless v is -0.0, which scale > 0 times a standard
        # value never is (uniforms are k 2^-53 >= +0.0, and ndtri gives +0.0
        # at 1/2, which (k + 1/2) 2^-53 rounds to at k = 2^52).
        v = model.law.from_bits(bits[0])
        if model.scale != 1.0:
            v = model.scale * v
        return (v if model.loc == 0.0 else model.loc + v), None
    if not is_bivariate(model):
        raise DomainError(f"not a model: {model!r}")
    xs = model.x_law.from_bits(bits[0])
    if model.link is None:
        return xs, model.y_law.from_bits(bits[1])
    return xs, model.link(xs) + model.noise_sigma * NormalLaw().from_bits(bits[1])


def _draw(model: Model, keys: np.ndarray, n: int, words):
    """(xs, ys) of shape (len(keys), n), ys None for univariate models, from
    ``words(keys, count)``: each key's first ``count`` raw Philox words."""
    streams = 2 if is_bivariate(model) else 1
    # Shifted right by 11, a raw word is Generator.integers(0, 2^53) on it.
    bits = (words(keys, streams * n) >> np.uint64(11)).view(np.int64)
    return _from_bits(model, bits.reshape(len(keys), streams, n).swapaxes(0, 1))


def sample(model: Model, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from the model, a pure function of (model, n, seed).

    Draw order is fixed per variant (x stream first, then the y/noise
    stream) so that sampled values are reproducible bit for bit. The seed
    must be an integer in [0, 2^64).
    """
    n = _count(n, "sample size", 1)
    key = np.array([_key_word(seed, "seed", 64)], dtype=np.uint64)
    xs, ys = _draw(model, key, n, _philox_loop)
    return Dataset(xs[0], None if ys is None else ys[0])


#: Most raw Philox words that one batch of ``sample_batches`` draws, which
#: bounds its working memory (about 1 MB) whatever n and the replicate count.
_CHUNK_WORDS = 1 << 14


def sample_batches(model: Model, n: int, seed: int, replicates: int):
    """``sample(model, n, derive_seed(seed, r))`` for r = 0 .. replicates - 1.

    Yields (first r, xs, ys) per batch of replicates, xs and ys of shape
    (rows, n) with the same floats as the per-replicate samples (ys is None
    for univariate models). A batch draws at most ``_CHUNK_WORDS`` words,
    or one replicate's if that is more.
    """
    n = _count(n, "sample size", 1)
    replicates = _count(replicates, "replicate count", 0)
    rows = max(1, _CHUNK_WORDS // ((2 if is_bivariate(model) else 1) * n))
    # Seeds are derived for about _CHUNK_WORDS replicates at once (whole
    # batches), since a call costs the same for one replicate as for many.
    block = rows * -(-_CHUNK_WORDS // rows)
    for first in range(0, replicates, block):
        keys = derive_seeds(seed, np.arange(first, min(first + block, replicates)))
        for start in range(0, len(keys), rows):
            yield (first + start, *_draw(model, keys[start:start + rows], n, _raw_words))


# ---------------------------------------------------------------------------
# Conditional structure
# ---------------------------------------------------------------------------

def _require_bivariate(model: Model, what: str) -> None:
    if not is_bivariate(model):
        raise UnsupportedError(f"{what} requires a bivariate model, got {type(model).__name__}")


def conditional_survival(model: Model, y, x):
    """P(Y > y | X = x); vectorized over either argument."""
    _require_bivariate(model, "conditional_survival")
    if np.isnan(y).any() or np.isnan(x).any():
        raise DomainError("conditional_survival is undefined at a NaN argument")
    if model.link is None:
        surv = 1.0 - model.y_law.cdf(y)
        return np.broadcast_to(surv, np.broadcast_shapes(np.shape(surv), np.shape(x)))
    return ndtr((model.link(x) - np.asarray(y, dtype=float)) / model.noise_sigma)


def marginal_cdf_x(model: Model, t):
    """CDF of the x marginal (or of the single variable, for univariate models)."""
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise DomainError("marginal_cdf_x is undefined at a NaN argument")
    if hasattr(model, "law"):
        return model.law.cdf((t - model.loc) / model.scale)
    if not is_bivariate(model):
        raise DomainError(f"not a model: {model!r}")
    return model.x_law.cdf(t)


# ---------------------------------------------------------------------------
# Expectation rules over the x marginal
# ---------------------------------------------------------------------------

def _panel_rules(law: Law, breakpoints: np.ndarray, order: int):
    """Composite Gauss-Legendre rules for E[h(X)] under ``law``, one per row.

    Row i of ``breakpoints`` (shape (T, M)) splits the panels of rule i;
    breakpoints that are NaN or not strictly inside the support are ignored.
    Panels are capped in width and the law's density is folded into the
    weights (which therefore sum to ~1 per rule). Returns (nodes, weights,
    counts): the rules are laid end to end, rule i taking the next
    ``counts[i]`` entries of the flat node and weight arrays.
    """
    lo, hi = law.support()
    inside = (breakpoints > lo) & (breakpoints < hi)
    # An ignored breakpoint becomes a zero-width panel at lo, which gets no pieces.
    rules = len(breakpoints)
    edges = np.column_stack((np.full(rules, lo), np.where(inside, breakpoints, lo),
                             np.full(rules, hi)))
    edges.sort(axis=1)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    width = b - a
    pieces = np.ceil(width / law.max_panel()).astype(np.intp)
    # Sub-panel ends exactly as np.linspace(a, b, pieces + 1) computes them.
    owner = np.repeat(np.arange(a.size), pieces)
    i = np.arange(owner.size) - (np.cumsum(pieces) - pieces)[owner]
    step = width[owner] / pieces[owner]
    p = i * step + a[owner]
    q = np.where(i + 1 == pieces[owner], b[owner], (i + 1) * step + a[owner])
    half = (0.5 * (q - p))[:, None]
    t0, w0 = _leggauss(order)
    nodes = half * (t0 + 1.0) + p[:, None]
    weights = half * w0 * law.pdf(nodes)
    counts = pieces.reshape(rules, edges.shape[1] - 1).sum(axis=1) * order
    return nodes.ravel(), weights.ravel(), counts


def plain_law_rule(law: Law, order: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Single-rule expectation nodes/weights: Hermite for normal, Legendre for uniform."""
    if isinstance(law, NormalLaw):
        return hermite_rule(order)
    t0, w0 = _leggauss(order)
    half = 0.5 * (law.b - law.a)
    return half * (t0 + 1.0) + law.a, (0.5 * w0)  # pdf * half = 1/2 exactly


#: Nested transition windows around a level, as fractions of the half-width.
_WINDOW_FRACTIONS = np.array((1.0, 0.45, 0.15))

#: Most quadrature panels that are evaluated at once for a batch of levels,
#: which bounds memory (a few MB) whatever the number of levels. At 1024, a
#: fresh process freed and faulted back the heap top between batches (1,271
#: minor page faults per 11 x 11 Chatterjee grid under C, against 83 at 512).
_CHUNK_PANELS = 512


def _as_rows(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


def _rule_breakpoints(model: Model, levels: np.ndarray, cuts, half_width: float) -> np.ndarray:
    """(T, M) panel breakpoints for rules resolving row i of ``levels`` (T, L)."""
    parts = [] if cuts is None else [_as_rows(cuts)]
    if levels.shape[1] and model.link is not None:
        windows = _WINDOW_FRACTIONS * half_width * model.noise_sigma
        ends = model.link.preimage(levels[:, :, None] - windows,
                                   levels[:, :, None] + windows, *model.x_law.support())
        parts.append(ends.reshape(len(levels), math.prod(ends.shape[1:])))
    return np.concatenate(parts, axis=1) if parts else np.empty((len(levels), 0))


def x_expectation_rules(model: Model, levels, cuts=None, order: int = 64,
                        half_width: float = FEATURE_HALF_WIDTH):
    """Expectation rules over the x marginal, one per row of ``levels``.

    Rule i resolves conditional-CDF kernels at ``levels[i]`` (a scalar per
    row for shape (T,), or L levels per row for shape (T, L)) and is split
    at ``cuts[i]`` (None, shape (T,) or (T, C)), exactly as
    ``x_expectation_rule`` builds it for those levels and cuts. Returns
    (nodes, weights, counts), rule i taking the next ``counts[i]`` entries.
    """
    _require_bivariate(model, "x_expectation_rules")
    levels = _as_rows(levels)
    breakpoints = _rule_breakpoints(model, levels, cuts, half_width)
    return _panel_rules(model.x_law, breakpoints, order)


def x_expectation_rule(model: Model, levels=(), cuts=(), order: int = 64,
                       half_width: float = FEATURE_HALF_WIDTH) -> tuple[np.ndarray, np.ndarray]:
    """Expectation rule over the x marginal, resolving conditional-CDF kernels.

    ``levels`` are y values at which integrands contain a term like
    P(Y > level | X); panels are split where the conditional location passes
    within ``half_width`` noise scales of each level, which is where such a
    kernel actually varies. The split is graded (nested sub-intervals of the
    transition region) so a kernel living on a tiny noise scale is resolved
    even at low base orders. ``cuts`` force additional plain panel
    boundaries (e.g. an indicator threshold in x itself). This is the
    one-rule case of ``x_expectation_rules``.
    """
    nodes, weights, _ = x_expectation_rules(
        model, np.reshape(levels, (1, -1)), np.reshape(cuts, (1, -1)), order, half_width)
    return nodes, weights


def _distinct_rules(levels: np.ndarray, cuts) -> tuple[np.ndarray, np.ndarray]:
    """(first, group): the first row of each group of rows whose levels and
    cuts are equal bit for bit, and each row's group. Bits, not values, so
    that -0.0 and 0.0 stay apart."""
    key = _as_rows(levels) if cuts is None else np.column_stack((_as_rows(levels), _as_rows(cuts)))
    key = key.view(np.uint64)
    # A stable sort on the columns, the first one primary: equal rows lie
    # next to each other, each group led by its first row.
    order = np.lexsort(key.T[::-1])
    key = key[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (key[1:] != key[:-1]).any(axis=1)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def x_expectations(model: Model, kernel, levels, cuts=None, order: int = 64,
                   half_width: float = FEATURE_HALF_WIDTH) -> np.ndarray:
    """E_X[kernel] for each level, each on its own level-refined x rule.

    ``kernel(x, i)`` receives nodes of several rules and, per node, the index
    into ``levels`` (shape (T,), or (T, L) for L levels per rule) of the
    rule it belongs to; it returns one value per node, or a stack of such
    rows. The last axis of the result indexes the rules. ``cuts`` (None or
    shape (T,)) splits rule i at ``cuts[i]`` as in ``x_expectation_rules``.

    The kernel must depend on a rule's index only through ``levels[i]`` and
    ``cuts[i]``. Rows whose levels and cuts are equal bit for bit then have
    the same rule and the same sum, so each distinct row is built and sent
    to the kernel once, under the index of its first row, and its sum is
    copied to the others. Rules are built in batches of at most
    ``_CHUNK_PANELS`` panels (one rule per batch if a rule needs more); a
    rule's sum does not depend on the batch it falls in.
    """
    _require_bivariate(model, "x_expectations")
    levels = np.asarray(levels, dtype=float)
    cuts = None if cuts is None else np.asarray(cuts, dtype=float)
    law = model.x_law
    lo, hi = law.support()
    # Capping adds at most one panel per breakpoint interval beyond the
    # ceil(support width / cap) panels of an unsplit rule.
    probe = _rule_breakpoints(model, _as_rows(levels[:1]), None if cuts is None else cuts[:1],
                              half_width)
    panels = probe.shape[1] + 1 + math.ceil((hi - lo) / law.max_panel())
    batch = max(1, _CHUNK_PANELS // panels)
    first, group = _distinct_rules(levels, cuts)
    sums = []
    # One pass even for no rows, so that an empty request gets the kernel's empty shape.
    for start in range(0, max(len(first), 1), batch):
        rules = first[start:start + batch]
        nodes, weights, counts = x_expectation_rules(
            model, levels[rules], None if cuts is None else cuts[rules], order, half_width)
        sums.append(np.add.reduceat(weights * kernel(nodes, np.repeat(rules, counts)),
                                    np.cumsum(counts) - counts, axis=-1))
    return np.concatenate(sums, axis=-1)[..., group]


def marginal_cdf_y(model: Model, t, order: int = 64):
    """CDF of the y marginal, vectorized over ``t``.

    For additive-noise models this is E_X[Phi((t - g(X)) / sigma)], each
    level on its own x rule refined around the kernel's transition region
    (``x_expectations``), so that a transition narrow next to the x support
    is resolved whatever the noise scale.
    """
    _require_bivariate(model, "marginal_cdf_y")
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise DomainError("marginal_cdf_y is undefined at a NaN level")
    if model.y_law is not None:
        return model.y_law.cdf(t)
    levels = t.ravel()
    cdf = x_expectations(
        model, lambda x, i: ndtr((levels[i] - model.link(x)) / model.noise_sigma),
        levels, order=order)
    return clamp_probability(cdf.reshape(t.shape))


def y_moments(model: Model, order: int = 64) -> tuple[float, float]:
    """(mean, standard deviation) of the y marginal."""
    _require_bivariate(model, "y_moments")
    if model.y_law is not None:
        return model.y_law.moments()
    nodes, weights = plain_law_rule(model.x_law, order)
    g = model.link(nodes)
    m1 = float(weights @ g)
    m2 = float(weights @ (g * g))
    var = max(m2 - m1 * m1, 0.0) + model.noise_sigma ** 2
    return (m1, math.sqrt(var))


# ---------------------------------------------------------------------------
# Expectations over an independent copy of Y
# ---------------------------------------------------------------------------

def expect_y_prime(model: Model, h: Callable[[np.ndarray], np.ndarray], *,
                   order: int = 64) -> float:
    """E[h(Y')] where Y' follows the marginal law of Y; ``h`` must accept
    numpy arrays.

    Models with a closed-form y marginal integrate over it with one plain
    rule (Hermite for a normal marginal); additive-noise models use the
    Hermite double rule over (X', Z'), Y' = g(X') + noise_sigma Z'.
    Integrands with an indicator or a sharp transition in Y' are not for
    this rule: the closed forms take those through ``numerics.bvn_cdf``.
    """
    _require_bivariate(model, "expect_y_prime")
    if model.y_law is not None:
        nodes, weights = plain_law_rule(model.y_law, order)
        return float(weights @ h(nodes))
    outer_nodes, outer_weights = x_expectation_rule(model, order=order)
    z_nodes, z_weights = hermite_rule(order)
    values = h(model.link(outer_nodes)[:, None] + model.noise_sigma * z_nodes[None, :])
    return float(outer_weights @ (values @ z_weights))
