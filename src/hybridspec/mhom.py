"""Many-harmonic-oscillator model: sampled inhomogeneous ensemble response.

Each packet is a bright/dark oscillator pair with its own frequencies and
bright-dark coupling; the qubit couples to every bright mode.  The response
is the closed-form frequency-domain solution of the Heisenberg-Langevin
equations, so the model is strictly linear in the drive (no power
broadening, by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .core import _require_finite, _require_int, _require_nonneg
from .errors import DivergentResponse, PeaksNotResolved
from .numerics import golden_section_max

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# Treecode of SelfEnergy.  A box of poles within radius h of its centre c,
# expanded in _TERMS moments, is taken at a target t with h < _THETA |t - c|;
# the truncation error is then below _THETA**_TERMS / (1 - _THETA) =
# 4**-26 / 0.75 = 3.0e-16 of sum|a_m| / |t - c|, under double rounding.
# Leaves hold at most _LEAF poles.
_LEAF = 32
_THETA = 0.25
_TERMS = 26
# frequencies per tree traversal: holds its (frequency, box) lists to a few
# MB.  At 36,000 packets a frequency accepts about 60 boxes (about 115 at
# gamma_b, gamma_d = 6.433, 0.493), and the far field's temporaries are a
# few (n_far,) rows: about 0.25 MB each (0.5 MB)
_CHUNK = 256
# (frequency, leaf) pairs per near-field block: caps its (_LEAF, pairs)
# temporaries at 2 MiB each, the largest a chunk makes.  Unequal damping
# makes boxes tall, and a chunk can then hold hundreds of thousands of near
# pairs
_NEAR_BLOCK = 4096
# the build's blocks: packets per pole-form block, and boxes per block of
# the moments, a power of two, so that a block of leaves is the whole
# level or at least two columns wide (numpy sums a C-contiguous (rows, 1)
# array pairwise, a wider one row by row)
_PACKET_BLOCK = 4096
_BOX_BLOCK = 256
# pole-form residues of a packet near a double root grow as |e|/|r| and
# would cancel to that factor; above _PAIR_GAIN zeta^2 (only possible with
# gamma_b != gamma_d) the packet is summed in its rational form
_PAIR_GAIN = 8.0
# locate_peak scans its window at this many points before refining
PEAK_SCAN_POINTS = 401


@dataclass(frozen=True)
class EnsembleSpec:
    """Statistical description of the inhomogeneous NV ensemble.

    FWHM widths are in the package frequency unit.  ``distribution`` selects
    the sampling shape for all continuous components: "gaussian" (default)
    or "lorentzian" (heavy-tailed, appropriate for dilute dipolar baths).
    ``hyperfine`` adds a discrete +-A/0 nitrogen nuclear-spin offset to the
    Zeeman coupling of each packet.
    """

    n_packets: int
    mean_zeeman: float
    fwhm_zeeman: float
    fwhm_strain: float
    fwhm_zfs: float
    collective_g: float
    omega_nv: float
    seed: int
    distribution: str = "gaussian"
    hyperfine: float = 0.0

    def __post_init__(self):
        _require_int("n_packets", self.n_packets, 1)
        _require_int("seed", self.seed, 0)
        for name in ("mean_zeeman", "omega_nv", "collective_g"):
            _require_finite(name, getattr(self, name))
        for name in ("fwhm_zeeman", "fwhm_strain", "fwhm_zfs", "hyperfine"):
            _require_nonneg(name, getattr(self, name))
        if self.collective_g <= 0:
            raise ValueError(
                f"collective_g must be > 0, got {self.collective_g!r}")
        if self.distribution not in ("gaussian", "lorentzian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def with_(self, **kwargs) -> "EnsembleSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Packets:
    """Sampled ensemble realization, one array entry per packet."""

    zeta: np.ndarray      # qubit coupling, sum(zeta^2) = collective_g^2
    omega_b: np.ndarray   # bright frequency D_k - E1_k
    omega_d: np.ndarray   # dark frequency D_k + E1_k
    j_zeeman: np.ndarray  # Zeeman bright-dark coupling
    j_strain: np.ndarray  # strain bright-dark coupling E2_k

    def __len__(self):
        return len(self.zeta)


@dataclass(frozen=True)
class MhomParams:
    """Qubit-side parameters of the ensemble response."""

    omega_fq: float
    gamma_fq: float
    gamma_b: float
    gamma_d: float
    lam: float = 1.0

    def __post_init__(self):
        _require_finite("omega_fq", self.omega_fq)
        for name in ("gamma_fq", "gamma_b", "gamma_d", "lam"):
            _require_nonneg(name, getattr(self, name))

    def with_(self, **kwargs) -> "MhomParams":
        return replace(self, **kwargs)


def sample_ensemble(spec: EnsembleSpec) -> Packets:
    """Draw a deterministic packet realization for the given seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_packets

    def draw(mean, fwhm):
        if spec.distribution == "gaussian":
            return rng.normal(mean, fwhm * _FWHM_TO_SIGMA, n)
        return mean + 0.5 * fwhm * rng.standard_cauchy(n)

    d_k = draw(spec.omega_nv, spec.fwhm_zfs)
    e1 = draw(0.0, spec.fwhm_strain)
    e2 = draw(0.0, spec.fwhm_strain)
    hf = 0.0
    if spec.hyperfine > 0.0:
        hf = spec.hyperfine * rng.integers(-1, 2, n)
    j_zeeman = hf + draw(spec.mean_zeeman, spec.fwhm_zeeman)
    zeta = np.full(n, spec.collective_g / np.sqrt(n))
    return Packets(zeta=zeta, omega_b=d_k - e1, omega_d=d_k + e1,
                   j_zeeman=j_zeeman, j_strain=e2)


def _pole_form(packets: Packets, gamma_b: float, gamma_d: float,
               origin: float) -> tuple:
    """(poles, residues) of the packets' terms, frequencies from
    ``origin``: every packet's pole m + r, then every pole m - r, leaving
    out the packets in rational form, and (zeta^2, beta, delta, j^2) of
    those packets.  Evaluated _PACKET_BLOCK packets at a time."""
    n = len(packets)
    poles = np.empty(2 * n, dtype=complex)
    residues = np.empty(2 * n, dtype=complex)
    pairs = []
    kept = 0
    for k in range(0, n, _PACKET_BLOCK):
        block = slice(k, k + _PACKET_BLOCK)
        beta = (packets.omega_b[block] - origin) - 1j * gamma_b
        delta = (packets.omega_d[block] - origin) - 1j * gamma_d
        j2 = packets.j_zeeman[block] ** 2 + packets.j_strain[block] ** 2
        zeta2 = packets.zeta[block] ** 2
        mid = 0.5 * (beta + delta)
        e = 0.5 * (delta - beta)
        r = np.sqrt(e * e + j2)
        # the root aligned with e, so that r + e does not cancel and the
        # small residue zeta^2 (r - e)/(2r) = zeta^2 j^2/((r + e) 2r) is
        # exact
        r = np.where((r * np.conj(e)).real < 0, -r, r)
        s = r + e
        pair = np.abs(s) > 2.0 * _PAIR_GAIN * np.abs(r)
        single = r == 0  # omega_b = omega_d, gamma_b = gamma_d, j = 0
        two_r = np.where(single, 1.0, 2.0 * r)
        large = np.where(single, 0.5 * zeta2, zeta2 * s / two_r)
        small = np.where(single, 0.5 * zeta2,
                         zeta2 * j2 / (np.where(single, 1.0, s) * two_r))
        keep = ~pair
        end = kept + np.count_nonzero(keep)
        poles[kept:end] = (mid + r)[keep]
        poles[n + kept:n + end] = (mid - r)[keep]
        residues[kept:end] = small[keep]
        residues[n + kept:n + end] = large[keep]
        kept = end
        pairs.append((zeta2[pair], beta[pair], delta[pair], j2[pair]))
    if kept < n:  # close the gap the rational-form packets left
        poles[kept:2 * kept] = poles[n:n + kept]
        residues[kept:2 * kept] = residues[n:n + kept]
    return (poles[:2 * kept], residues[:2 * kept],
            tuple(np.concatenate(column) for column in zip(*pairs)))


def _leaves(poles, residues) -> tuple:
    """(levels, leaf poles, leaf residues) of the tree over the sorted
    poles: 2^levels equal-count ranges, padded to one width with zero
    residues at a pole of the same leaf (one column per leaf)."""
    n = len(poles)
    levels = 0
    while _LEAF << levels < n:
        levels += 1
    n_leaf = 1 << levels
    bounds = np.arange(n_leaf + 1) * n // n_leaf
    idx = bounds[:-1] + np.arange(np.max(np.diff(bounds)))[:, None]
    pad = idx >= bounds[1:]
    # through the sort order: the sorted poles are never formed
    idx = np.argsort(poles, kind="stable")[np.where(pad, bounds[:-1], idx)]
    return levels, poles[idx], np.where(pad, 0.0, residues[idx])


class SelfEnergy:
    """The ensemble's self-energy sigma(omega) at packet damping gamma_b,
    gamma_d, built once and evaluated at any number of frequencies.

    Packet k contributes zeta^2 (z_d - omega_d) / ((z_b - omega_b)
    (z_d - omega_d) - j^2), z_b,d = omega + i gamma_b,d, which has two
    poles p = m +- r, m = (beta + delta)/2, e = (delta - beta)/2,
    r = sqrt(e^2 + j^2), beta = omega_b - i gamma_b, delta = omega_d -
    i gamma_d, and residues zeta^2 (r -+ e)/(2r).  So sigma(omega) =
    sum_m a_m/(omega - p_m), a Cauchy sum over 2N poles below the real
    axis (on the line Im p = -gamma when gamma_b = gamma_d, with real
    residues in [0, zeta^2]).  The poles are sorted and split into a
    binary tree of equal-count boxes; each box stores _TERMS moments about
    its centre, and a target takes a box's expansion when it lies more
    than radius/_THETA from the centre, opens its children otherwise, and
    sums the leaves it never accepts directly.  A packet near a double
    root, whose residues would exceed _PAIR_GAIN zeta^2, is summed in its
    rational form at every target instead.

    Each frequency's terms are accumulated in an order fixed by the
    frequency alone, so a scalar call gives the bit pattern of the same
    frequency in an array call.  ``n_frequencies`` counts the frequencies
    evaluated.
    """

    def __init__(self, packets: Packets, gamma_b: float, gamma_d: float):
        if len(packets) == 0:
            raise ValueError("packets must be nonempty")
        self.gamma_b, self.gamma_d = gamma_b, gamma_d
        self.n_frequencies = 0
        # frequencies are taken from an origin among the packets: t - p then
        # keeps the precision of t - omega_b, which is exact near the
        # packets, where a pole rounded at |p| ~ omega_nv would lose
        # ulp(omega_nv)/gamma (1e-12 at gamma = 0.2)
        self._origin = float(np.median(packets.omega_b))
        poles, residues, self._pairs = _pole_form(packets, gamma_b, gamma_d,
                                                  self._origin)
        if not len(poles):  # every packet in rational form
            self._levels = None
            return
        self._levels, self._leaf_p, self._leaf_a = _leaves(poles, residues)
        del poles, residues  # the leaves hold every pole from here on
        self._build()

    def _build(self):
        levels, leaf_p, leaf_a = self._levels, self._leaf_p, self._leaf_a
        n_leaf = 1 << levels
        self._first_leaf = n_leaf - 1

        # boxes in heap order: node b has children 2b+1 and 2b+2, the
        # leaves are the last level.  A box's centre is the middle of the
        # rectangle around its poles, and its radius reaches over its
        # children's discs, so the moment shift below never amplifies.
        # Moments M_k = sum a ((p - c)/scale)^k, scale the radius (or 1):
        # the leaves' from their poles, a parent's from its children's by
        # the binomial shift M_k = sum_i C(k, i) u^(k-i) (s'/s)^i M'_i,
        # u = (c' - c)/s.  Both run over blocks of _BOX_BLOCK boxes.
        n_node = 2 * n_leaf - 1
        leaves = slice(n_leaf - 1, n_node)
        rect = np.empty((n_node, 4))  # min Re, max Re, min Im, max Im
        rect[leaves] = np.stack([leaf_p.real.min(0), leaf_p.real.max(0),
                                 leaf_p.imag.min(0), leaf_p.imag.max(0)], 1)
        centre = np.empty(n_node, dtype=complex)
        radius = np.empty(n_node)
        centre[leaves] = (0.5 * (rect[leaves, 0] + rect[leaves, 1])
                          + 0.5j * (rect[leaves, 2] + rect[leaves, 3]))
        moments = np.empty((_TERMS, n_node), dtype=complex)
        for k in range(0, n_leaf, _BOX_BLOCK):
            cols = slice(k, k + _BOX_BLOCK)
            box = slice(n_leaf - 1 + k, n_leaf - 1 + k + _BOX_BLOCK)
            u = leaf_p[:, cols] - centre[box]
            radius[box] = np.max(np.hypot(u.real, u.imag), axis=0)
            u /= np.where(radius[box] > 0, radius[box], 1.0)
            term = leaf_a[:, cols].copy()
            for j in range(_TERMS):
                moments[j, box] = term.sum(axis=0)
                term *= u
        parents = [np.arange((1 << level) - 1, (2 << level) - 1)
                   for level in range(levels)]
        for par in reversed(parents):
            kids = (2 * par + 1, 2 * par + 2)
            rect[par, ::2] = np.minimum(rect[kids[0], ::2],
                                        rect[kids[1], ::2])
            rect[par, 1::2] = np.maximum(rect[kids[0], 1::2],
                                         rect[kids[1], 1::2])
            centre[par] = (0.5 * (rect[par, 0] + rect[par, 1])
                           + 0.5j * (rect[par, 2] + rect[par, 3]))
            radius[par] = np.maximum(
                *(np.abs(centre[kid] - centre[par]) + radius[kid]
                  for kid in kids))
        scale = np.where(radius > 0, radius, 1.0)

        power = np.arange(_TERMS)[:, None]
        # C(i + d, i), i = 0 .. _TERMS - d - 1, as a column for each d
        binom = [np.array([[comb(i + d, i)] for i in range(_TERMS - d)],
                          dtype=float) for d in range(_TERMS)]
        for level in reversed(parents):
            for k in range(0, len(level), _BOX_BLOCK):
                par = level[k:k + _BOX_BLOCK]
                shifted = np.zeros((_TERMS, len(par)), dtype=complex)
                for kid in (2 * par + 1, 2 * par + 2):
                    m = moments[:, kid] * (scale[kid] / scale[par]) ** power
                    u = (centre[kid] - centre[par]) / scale[par]
                    u_pow = np.ones(len(par), dtype=complex)
                    for d in range(_TERMS):
                        shifted[d:] += binom[d] * u_pow * m[:_TERMS - d]
                        u_pow = u_pow * u
                moments[:, par] = shifted
        self._centre, self._radius = centre, radius
        self._scale, self._moments = scale, moments

    def __call__(self, omega) -> np.ndarray:
        """sigma at scalar or array omega, as a complex array of its shape
        (a 0-d array for a scalar)."""
        omegas = np.asarray(omega, dtype=float)
        t = omegas.reshape(-1) - self._origin
        self.n_frequencies += t.size
        total = np.zeros(t.shape, dtype=complex)
        if self._levels is not None:
            for k in range(0, len(t), _CHUNK):
                part = total[k:k + _CHUNK]
                part.real, part.imag = self._tree_sum(t[k:k + _CHUNK])
        zeta2, beta, delta, j2 = self._pairs
        for k in range(len(zeta2)):
            num = t - delta[k]
            den = (t - beta[k]) * num - j2[k]
            if np.any(np.abs(den) < 1e-300):
                raise DivergentResponse("packet denominator vanished")
            total += zeta2[k] * num / den
        return total.reshape(omegas.shape)

    def _tree_sum(self, t):
        """(Re, Im) of the pole sum at the real targets t."""
        n = len(t)
        tgt = np.arange(n)
        node = np.zeros(n, dtype=np.intp)
        far_t, far_node = [], []
        for level in range(self._levels + 1):
            d = t[tgt] - self._centre[node]
            accept = self._radius[node] < _THETA * np.hypot(d.real, d.imag)
            far_t.append(tgt[accept])
            far_node.append(node[accept])
            tgt, node = tgt[~accept], node[~accept]
            if level < self._levels:
                tgt = np.repeat(tgt, 2)
                node = (2 * node[:, None] + (1, 2)).ravel()  # children
        far_t = np.concatenate(far_t)
        far_node = np.concatenate(far_node)
        d = t[far_t] - self._centre[far_node]
        ratio = self._scale[far_node] / d
        # Horner, gathering one moment row per term
        acc = self._moments[_TERMS - 1].take(far_node)
        for k in range(_TERMS - 2, -1, -1):
            acc *= ratio
            acc += self._moments[k].take(far_node)
        acc /= d
        re = np.bincount(far_t, acc.real, n)
        im = np.bincount(far_t, acc.imag, n)

        # near field in (_LEAF, pairs) blocks: the sum over axis 0 of a
        # C-contiguous array adds the rows in order, pole by pole (the
        # fancy index self._leaf_p[:, leaf] is not C-contiguous, and numpy
        # would sum it pairwise, in other bits)
        leaf = node - self._first_leaf
        near = np.empty(len(tgt), dtype=complex)
        for k in range(0, len(tgt), _NEAR_BLOCK):
            cols = slice(k, k + _NEAR_BLOCK)
            d = t[tgt[cols]] - np.take(self._leaf_p, leaf[cols], axis=1)
            if np.any(np.abs(d) < 1e-300):
                raise DivergentResponse("packet denominator vanished")
            near[cols] = (np.take(self._leaf_a, leaf[cols], axis=1)
                          / d).sum(axis=0)
        return (re + np.bincount(tgt, near.real, n),
                im + np.bincount(tgt, near.imag, n))


def _excitation(sigma: SelfEnergy, omegas, omega_fq, params: MhomParams):
    """|c|^2 at the array ``omegas``; ``omega_fq`` is a scalar or an array
    that broadcasts with them, and ``sigma`` must be built at params'
    packet damping.  hypot and float_power give the bits of Python's
    abs(c) ** 2, which np.abs (a SIMD path) and ** 2 (a multiply) on a
    complex array would each move in the last bit."""
    if (sigma.gamma_b, sigma.gamma_d) != (params.gamma_b, params.gamma_d):
        raise ValueError(
            f"self-energy built at gamma_b={sigma.gamma_b}, gamma_d="
            f"{sigma.gamma_d}, params give {params.gamma_b}, "
            f"{params.gamma_d}")
    w = omegas - omega_fq + 1j * params.gamma_fq - sigma(omegas)
    if np.any(np.abs(w) < 1e-300):
        raise DivergentResponse("qubit response denominator vanished")
    c = (params.lam / 2.0) / w
    return np.float_power(np.hypot(c.real, c.imag), 2)


def mhom_response(ensemble, params: MhomParams, omega):
    """Qubit excitation |c|^2, c = (lam/2)/(omega - omega_fq + i gamma_fq
    - sigma(omega)), at scalar or array omega.

    ``ensemble`` is the Packets, or a SelfEnergy built from them once at
    params' packet damping for repeated calls."""
    sigma = ensemble
    if not isinstance(ensemble, SelfEnergy):
        sigma = SelfEnergy(ensemble, params.gamma_b, params.gamma_d)
    omegas = np.asarray(omega, dtype=float)
    out = _excitation(sigma, omegas.reshape(-1), params.omega_fq, params)
    return float(out[0]) if omegas.ndim == 0 else out.reshape(omegas.shape)


def locate_peak(sigma: SelfEnergy, params: MhomParams, windows,
                report: dict = None) -> np.ndarray:
    """One local maximum of |c|^2 in each window (omega_fq, lo, hi), which
    must lie inside [lo, hi], with the qubit at that window's omega_fq and
    the other parameters from ``params``; ``sigma`` is the ensemble's
    SelfEnergy at params' packet damping.

    Every window is scanned at PEAK_SCAN_POINTS points, all in one
    self-energy call, and its best scan point refined by golden section;
    the windows are refined in lockstep, one self-energy call per step.
    ``report``, a dict updated in place, receives the refinement's
    ``golden_section_evaluations`` (frequencies, summed over windows).
    """
    omega_fq = np.array([w[0] for w in windows], dtype=float)
    omegas = np.reshape([np.linspace(lo, hi, PEAK_SCAN_POINTS)
                         for _, lo, hi in windows], (-1, PEAK_SCAN_POINTS))
    vals = _excitation(sigma, omegas, omega_fq[:, None], params)
    best = np.argmax(vals, axis=1)
    for (_, lo, hi), i in zip(windows, best):
        if i == 0 or i == PEAK_SCAN_POINTS - 1:
            raise PeaksNotResolved(f"no interior maximum in [{lo}, {hi}]")
    centre = omegas[np.arange(len(windows)), best]
    h = omegas[:, 1] - omegas[:, 0]
    evaluations = 0

    def refine(x, lanes):
        nonlocal evaluations
        evaluations += x.size
        return _excitation(sigma, x, omega_fq[lanes], params)

    peaks = golden_section_max(refine, centre - h, centre + h)
    if report is not None:
        report.update(golden_section_evaluations=evaluations)
    return peaks

