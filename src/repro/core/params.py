"""The 44-parameter canonical layout and its free reparameterization.

Each light source is characterized by 44 constrained parameters (paper,
Section IV): the star/galaxy probabilities ``a`` (2), the sky position ``u``
(2), per-type log-normal brightness parameters ``r1``/``r2`` (2+2), per-type
color means/variances ``c1``/``c2`` (8+8), the four galaxy shape parameters,
and the per-type color-prior mixture responsibilities ``k`` (16).

Newton's method steps in a 41-dimensional *free* vector related to the
canonical vector by smooth bijections (simplexes lose one degree of freedom
each).  The fused kernel (:mod:`repro.core.kernel`) chains its derivatives
through the bijections' closed-form first and second derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    GALAXY,
    NUM_COLOR_COMPONENTS,
    NUM_COLORS,
    NUM_TYPES,
    STAR,
    TYPE_MASS_FLOOR,
)
from repro.transforms import (
    LogitBox,
    softmax_fixed_last,
    softmax_fixed_last_inverse,
)

__all__ = [
    "ParamLayout",
    "CANONICAL",
    "FREE",
    "SourceParams",
    "free_to_canonical",
    "canonical_to_free",
    "U_BOX_HALFWIDTH",
]

#: Half-width (pixels) of the box constraint on position around the catalog
#: initialization; Celeste likewise confines u near its starting point.
U_BOX_HALFWIDTH = 2.0

#: Bijectors for scalar blocks of the free vector.
_BIJ_R2 = LogitBox(1e-4, 2.0)       # variational variance of log brightness
_BIJ_C2 = LogitBox(1e-4, 2.0)       # variational variance of each color
_BIJ_DEV = LogitBox(0.0, 1.0)       # de Vaucouleurs flux fraction
_BIJ_AXIS = LogitBox(0.05, 1.0)     # minor/major axis ratio
# The scale floor (0.25 px) keeps the galaxy hypothesis from collapsing onto
# an exact point source; below it, star and galaxy would be perfectly
# degenerate and type probabilities would be set by the priors alone.
_BIJ_SCALE = LogitBox(0.25, 30.0)   # effective radius in pixels
_BIJ_PROB = LogitBox(0.0, 1.0)      # P(galaxy)


class ParamLayout:
    """Named index ranges into a flat parameter vector."""

    def __init__(self, blocks: list[tuple[str, int]]):
        self.blocks = dict()
        self.size = 0
        for name, width in blocks:
            self.blocks[name] = slice(self.size, self.size + width)
            self.size += width

    def __getitem__(self, name: str) -> slice:
        return self.blocks[name]

    def indices(self, name: str) -> list[int]:
        s = self.blocks[name]
        return list(range(s.start, s.stop))

    def names(self):
        return list(self.blocks)


#: Canonical (constrained) layout: 44 parameters.
CANONICAL = ParamLayout([
    ("a", NUM_TYPES),                                  # P(star), P(galaxy)
    ("u", 2),                                          # position
    ("r1", NUM_TYPES),                                 # log-brightness mean, per type
    ("r2", NUM_TYPES),                                 # log-brightness variance, per type
    ("c1", NUM_COLORS * NUM_TYPES),                    # color means
    ("c2", NUM_COLORS * NUM_TYPES),                    # color variances
    ("e_dev", 1),
    ("e_axis", 1),
    ("e_angle", 1),
    ("e_scale", 1),
    ("k", NUM_COLOR_COMPONENTS * NUM_TYPES),           # color-prior responsibilities
])

#: Free (unconstrained) layout: 41 parameters.
FREE = ParamLayout([
    ("a", 1),
    ("u", 2),
    ("r1", NUM_TYPES),
    ("r2", NUM_TYPES),
    ("c1", NUM_COLORS * NUM_TYPES),
    ("c2", NUM_COLORS * NUM_TYPES),
    ("e_dev", 1),
    ("e_axis", 1),
    ("e_angle", 1),
    ("e_scale", 1),
    ("k", (NUM_COLOR_COMPONENTS - 1) * NUM_TYPES),
])

assert CANONICAL.size == 44
assert FREE.size == 41


@dataclass
class SourceParams:
    """Structured view of one source's canonical parameters.

    All attributes are either floats or small NumPy arrays; this is the
    catalog-facing representation (stored in the PGAS array between tasks).
    """

    prob_galaxy: float
    u: np.ndarray                 # (2,) sky position
    r1: np.ndarray                # (2,) per type
    r2: np.ndarray                # (2,)
    c1: np.ndarray                # (NUM_COLORS, 2)
    c2: np.ndarray                # (NUM_COLORS, 2)
    e_dev: float
    e_axis: float
    e_angle: float
    e_scale: float
    k: np.ndarray                 # (NUM_COLOR_COMPONENTS, 2)

    def to_canonical(self) -> np.ndarray:
        out = np.empty(CANONICAL.size)
        out[CANONICAL["a"]] = [1.0 - self.prob_galaxy, self.prob_galaxy]
        out[CANONICAL["u"]] = self.u
        out[CANONICAL["r1"]] = self.r1
        out[CANONICAL["r2"]] = self.r2
        out[CANONICAL["c1"]] = self.c1.T.ravel()   # type-major
        out[CANONICAL["c2"]] = self.c2.T.ravel()
        out[CANONICAL["e_dev"]] = self.e_dev
        out[CANONICAL["e_axis"]] = self.e_axis
        out[CANONICAL["e_angle"]] = self.e_angle
        out[CANONICAL["e_scale"]] = self.e_scale
        out[CANONICAL["k"]] = self.k.T.ravel()
        return out

    @staticmethod
    def from_canonical(vec: np.ndarray) -> "SourceParams":
        vec = np.asarray(vec, dtype=float)
        a = vec[CANONICAL["a"]]
        return SourceParams(
            prob_galaxy=float(a[GALAXY] / max(a.sum(), TYPE_MASS_FLOOR)),
            u=vec[CANONICAL["u"]].copy(),
            r1=vec[CANONICAL["r1"]].copy(),
            r2=vec[CANONICAL["r2"]].copy(),
            c1=vec[CANONICAL["c1"]].reshape(NUM_TYPES, NUM_COLORS).T.copy(),
            c2=vec[CANONICAL["c2"]].reshape(NUM_TYPES, NUM_COLORS).T.copy(),
            e_dev=float(vec[CANONICAL["e_dev"]][0]),
            e_axis=float(vec[CANONICAL["e_axis"]][0]),
            e_angle=float(vec[CANONICAL["e_angle"]][0]),
            e_scale=float(vec[CANONICAL["e_scale"]][0]),
            k=vec[CANONICAL["k"]].reshape(NUM_TYPES, NUM_COLOR_COMPONENTS).T.copy(),
        )

    def expected_flux(self, ty: int, band: int) -> float:
        """E_q[f_band | type] — log-normal moment of the band flux."""
        from repro.core.fluxes import COLOR_COEFFS

        coeff = COLOR_COEFFS[band]
        m = self.r1[ty] + float(coeff @ self.c1[:, ty])
        v = self.r2[ty] + float((coeff ** 2) @ self.c2[:, ty])
        return float(np.exp(m + 0.5 * v))

    def expected_fluxes(self, band: int) -> float:
        """Type-marginal expected band flux."""
        pg = self.prob_galaxy
        return (1.0 - pg) * self.expected_flux(STAR, band) + pg * self.expected_flux(
            GALAXY, band
        )


def free_to_canonical(free: np.ndarray, u_center: np.ndarray) -> np.ndarray:
    """Map a free 41-vector to the canonical 44-vector (NumPy path)."""
    free = np.asarray(free, dtype=float)
    out = np.empty(CANONICAL.size)
    pg = _BIJ_PROB.forward_np(free[FREE["a"]][0])
    out[CANONICAL["a"]] = [1.0 - pg, pg]
    ub = LogitBox(-U_BOX_HALFWIDTH, U_BOX_HALFWIDTH)
    out[CANONICAL["u"]] = np.asarray(u_center) + ub.forward_np(free[FREE["u"]])
    out[CANONICAL["r1"]] = free[FREE["r1"]]
    out[CANONICAL["r2"]] = _BIJ_R2.forward_np(free[FREE["r2"]])
    out[CANONICAL["c1"]] = free[FREE["c1"]]
    out[CANONICAL["c2"]] = _BIJ_C2.forward_np(free[FREE["c2"]])
    out[CANONICAL["e_dev"]] = _BIJ_DEV.forward_np(free[FREE["e_dev"]])
    out[CANONICAL["e_axis"]] = _BIJ_AXIS.forward_np(free[FREE["e_axis"]])
    out[CANONICAL["e_angle"]] = free[FREE["e_angle"]]
    out[CANONICAL["e_scale"]] = _BIJ_SCALE.forward_np(free[FREE["e_scale"]])
    kf = free[FREE["k"]].reshape(NUM_TYPES, NUM_COLOR_COMPONENTS - 1)
    kc = np.stack([softmax_fixed_last(kf[t]) for t in range(NUM_TYPES)])
    out[CANONICAL["k"]] = kc.ravel()
    return out


def canonical_to_free(canonical: np.ndarray, u_center: np.ndarray) -> np.ndarray:
    """Map a canonical 44-vector to the free 41-vector (NumPy path)."""
    canonical = np.asarray(canonical, dtype=float)
    out = np.empty(FREE.size)
    a = canonical[CANONICAL["a"]]
    out[FREE["a"]] = _BIJ_PROB.inverse_np(a[GALAXY] / max(a.sum(), TYPE_MASS_FLOOR))
    ub = LogitBox(-U_BOX_HALFWIDTH, U_BOX_HALFWIDTH)
    out[FREE["u"]] = ub.inverse_np(canonical[CANONICAL["u"]] - np.asarray(u_center))
    out[FREE["r1"]] = canonical[CANONICAL["r1"]]
    out[FREE["r2"]] = _BIJ_R2.inverse_np(canonical[CANONICAL["r2"]])
    out[FREE["c1"]] = canonical[CANONICAL["c1"]]
    out[FREE["c2"]] = _BIJ_C2.inverse_np(canonical[CANONICAL["c2"]])
    out[FREE["e_dev"]] = _BIJ_DEV.inverse_np(canonical[CANONICAL["e_dev"]])
    out[FREE["e_axis"]] = _BIJ_AXIS.inverse_np(canonical[CANONICAL["e_axis"]])
    out[FREE["e_angle"]] = canonical[CANONICAL["e_angle"]]
    out[FREE["e_scale"]] = _BIJ_SCALE.inverse_np(canonical[CANONICAL["e_scale"]])
    kc = canonical[CANONICAL["k"]].reshape(NUM_TYPES, NUM_COLOR_COMPONENTS)
    kf = np.stack([softmax_fixed_last_inverse(kc[t]) for t in range(NUM_TYPES)])
    out[FREE["k"]] = kf.ravel()
    return out
