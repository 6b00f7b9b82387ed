"""The expectation over Y' with its truncation options, kept as an oracle.

``expect_y_prime`` here is the rule that ``aesf.models.expect_y_prime`` was
before every Chatterjee term went through the bivariate normal CDF:
``upper=`` restricts the integrand to Y' < upper, with upper an exact
integration boundary (a six-panel truncated Z' rule under additive noise, a
bounded re-weighted Legendre rule on a known y law), and ``sharp_levels``
refines the outer rule around levels where h varies on the noise scale. The
tests compare the closed forms against it. Not collected by pytest.
"""

import math
from typing import Callable, Optional

import numpy as np

from aesf.errors import DomainError
from aesf.models import (
    Law,
    Model,
    UniformLaw,
    Y_PRIME_HALF_WIDTH,
    _panel_rules,
    _require_bivariate,
    plain_law_rule,
    x_expectation_rule,
)
from aesf.numerics import NORMAL_TAIL, _leggauss, hermite_rule, normal_pdf


def expect_y_prime(model: Model, h: Callable[[np.ndarray], np.ndarray], *,
                   upper: Optional[float] = None, sharp_levels=(),
                   order: int = 64) -> float:
    """E[h(Y')] where Y' follows the marginal law of Y.

    ``h`` must accept numpy arrays. With ``upper=c`` the integrand is
    restricted to ``Y' < c`` (computed with c as an exact integration
    boundary, so indicator truncations cost no accuracy). ``sharp_levels``
    lists y values around which h varies on the conditional noise scale;
    they refine the quadrature the same way ``x_expectation_rule`` does.

    Models with a closed-form y marginal integrate over it directly (a
    single Hermite rule for a normal marginal); additive-noise models use a
    double rule over (X', Z'). ``upper=inf`` truncates nothing; a NaN
    ``upper`` or sharp level raises ``DomainError``.
    """
    _require_bivariate(model, "expect_y_prime")
    if upper is not None and math.isnan(upper):
        raise DomainError("expect_y_prime is undefined below a NaN upper bound")
    if np.isnan(np.asarray(sharp_levels, dtype=float)).any():
        raise DomainError("expect_y_prime cannot refine around a NaN level")

    if model.y_law is not None:
        return _law_expect(model.y_law, h, upper, sharp_levels, order)

    # Additive noise: outer over X', inner over Z'.
    sigma = model.noise_sigma
    levels = list(sharp_levels) + ([upper] if upper is not None else [])
    outer_nodes, outer_weights = x_expectation_rule(
        model, levels=levels, order=order, half_width=Y_PRIME_HALF_WIDTH)
    g = model.link(outer_nodes)

    if upper is None:
        z_nodes, z_weights = hermite_rule(order)
        values = h(g[:, None] + sigma * z_nodes[None, :])
        return float(outer_weights @ (values @ z_weights))

    # Truncated inner integral over Z' in [-tail, zeta_i], as a fixed number
    # of equal panels per node so that low base orders stay accurate over
    # the up-to-17-unit range.
    zeta = np.minimum((upper - g) / sigma, NORMAL_TAIL)
    active = zeta > -NORMAL_TAIL
    if not np.any(active):
        return 0.0
    t0, w0 = _leggauss(order)
    panels = 6
    width = (zeta[active] + NORMAL_TAIL) / panels  # (nu,)
    offsets = np.arange(panels)[:, None] + 0.5 * (t0[None, :] + 1.0)  # (panels, order)
    z = -NORMAL_TAIL + width[:, None, None] * offsets[None, :, :]  # (nu, panels, order)
    values = h(g[active, None, None] + sigma * z) * normal_pdf(z)
    inner = (values @ (0.5 * w0)).sum(axis=1) * width
    return float(outer_weights[active] @ inner)


def _law_expect(law: Law, h, upper, sharp_levels, order: int) -> float:
    if upper is None and not sharp_levels:
        nodes, weights = plain_law_rule(law, order)
        return float(weights @ h(nodes))
    lo, hi = law.support()
    if upper is not None:
        if upper <= lo:
            return 0.0
        hi = min(hi, float(upper))
        if hi <= lo:
            return 0.0
    bounded = UniformLaw(lo, hi)
    nodes, weights, _ = _panel_rules(
        bounded, np.asarray(sharp_levels, dtype=float).reshape(1, -1), order)
    # _panel_rules folded the uniform density; swap in the real one.
    weights = weights * (hi - lo) * law.pdf(nodes)
    return float(weights @ h(nodes))
