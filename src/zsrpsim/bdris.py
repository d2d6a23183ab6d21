"""Fully-connected RIS scattering matrices and cascaded link gains.

A fully-connected (FC) RIS applies an L x L complex symmetric unitary
scattering matrix Theta, realized through the Takagi-style factorization

    Theta = V diag(exp(-j phi)) V^T,   V unitary.

Choosing V so that the transformed vectors V^T conj(h_rn) and V^T h_br
both have flat magnitude profiles makes the Cauchy-Schwarz bound on
|h_rn^H Theta h_br|^2 tight once the per-branch phases phi are aligned,
giving the cascaded gain ||h_br||^2 * ||h_rn||^2.  A conventional
single-connected (SC) RIS only co-phases element-by-element products and
reaches (sum_l |h_br,l| |h_rn,l|)^2 <= the FC gain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseDecomposition:
    """Takagi factors (V, phi) with Theta = V diag(exp(-j phi)) V^T."""

    v: np.ndarray
    phi: np.ndarray


def _orthonormal_frame(cols: np.ndarray) -> np.ndarray:
    """Square unitary whose leading columns Gram-Schmidt the inputs.

    QR with the diagonal of R rotated to the positive real axis, so column
    k of the result equals the k-th Gram-Schmidt vector of ``cols``.
    """
    n, k = cols.shape
    full = np.concatenate([cols, np.eye(n, dtype=complex)], axis=1)
    q, r = np.linalg.qr(full, mode="reduced")
    d = np.diagonal(r)[:n].copy()
    mag = np.abs(d)
    d = np.where(mag == 0.0, 1.0, d) / np.where(mag == 0.0, 1.0, mag)
    return q[:, :n] * d[None, :]


def _flat_profile_with_overlap(c: complex, n: int) -> np.ndarray:
    """Unit vector with |y_l| = 1/sqrt(n) and <flat, y> = c, |c| <= 1.

    Built from two phase groups at +/-delta around arg(c); odd sizes keep
    one element on the bisector and widen the group angle accordingly.
    """
    mag = min(abs(c), 1.0)
    ph = cmath.phase(c)
    if n == 1:
        return np.array([np.exp(1j * ph)])
    psis = np.empty(n)
    if n % 2 == 0:
        delta = math.acos(mag)
        half = n // 2
        psis[:half] = ph + delta
        psis[half:] = ph - delta
    else:
        pairs = (n - 1) // 2
        cosd = (n * mag - 1.0) / (n - 1.0)
        delta = math.acos(max(-1.0, min(1.0, cosd)))
        psis[0] = ph
        psis[1:1 + pairs] = ph + delta
        psis[1 + pairs:] = ph - delta
    return np.exp(1j * psis) / math.sqrt(n)


def construct_aligning_unitary(h_br: np.ndarray, h_rn: np.ndarray) -> np.ndarray:
    """Unitary V flattening both transformed channel magnitude profiles.

    Returns V such that p = V^T conj(h_rn) and q = V^T h_br satisfy
    |p_l| / ||p|| = |q_l| / ||q|| = 1/sqrt(L) for every branch l.  The map
    sends the normalized pair (conj(h_rn), h_br) onto a pair of flat-
    magnitude vectors with the same inner product (so a two-frame isometry
    exists) and acts as the identity on the orthogonal complement.
    """
    h_br = np.asarray(h_br, dtype=complex)
    h_rn = np.asarray(h_rn, dtype=complex)
    if h_br.ndim != 1 or h_br.shape != h_rn.shape:
        raise ValueError("channel vectors must be 1-D with equal length")
    nb = np.linalg.norm(h_br)
    nr = np.linalg.norm(h_rn)
    if nb == 0.0 or nr == 0.0:
        raise ValueError("channel vectors must be nonzero")
    n = h_br.shape[0]
    a = np.conj(h_rn) / nr
    b = h_br / nb
    c = complex(np.vdot(a, b))  # <a, b>
    x = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    y = _flat_profile_with_overlap(c, n)
    if n == 1:
        w = np.array([[np.conj(a[0])]])  # maps a -> 1 = x
        return w.T
    # Work inside U = span{a, b, x, y} so the map is the identity on U^perp;
    # a two-frame isometry a,b -> x,y exists there because <a,b> = <x,y>.
    if n <= 4:
        w = _orthonormal_frame(np.stack([x, y], axis=1)) \
            @ _orthonormal_frame(np.stack([a, b], axis=1)).conj().T
        return w.T
    qu = _orthonormal_frame(np.stack([a, b, x, y], axis=1))[:, :4]
    eh = qu.conj().T @ np.stack([a, b], axis=1)   # coordinates of a, b in U
    fh = qu.conj().T @ np.stack([x, y], axis=1)   # coordinates of x, y in U
    w_core = _orthonormal_frame(fh) @ _orthonormal_frame(eh).conj().T
    w = np.eye(n, dtype=complex) + qu @ (w_core - np.eye(4, dtype=complex)) @ qu.conj().T
    return w.T


def optimal_phases(v: np.ndarray, h_br: np.ndarray, h_rn: np.ndarray) -> np.ndarray:
    """Branch phases aligning every summand of h_rn^H Theta h_br.

    With p = V^T conj(h_rn) and q = V^T h_br, the bilinear form is
    sum_l p_l exp(-j phi_l) q_l, so phi_l = arg(p_l) + arg(q_l) (mod 2 pi)
    makes each summand real and nonnegative.
    """
    p = v.T @ np.conj(h_rn)
    q = v.T @ h_br
    return np.mod(np.angle(p) + np.angle(q), 2.0 * math.pi)


def assemble_theta(decomp: PhaseDecomposition) -> np.ndarray:
    """Scattering matrix V diag(exp(-j phi)) V^T (symmetric unitary)."""
    v, phi = decomp.v, decomp.phi
    return (v * np.exp(-1j * phi)[None, :]) @ v.T


def fc_cascaded_gain(h_br: np.ndarray, h_rn: np.ndarray) -> float:
    """Optimal FC-RIS cascaded gain ||h_br||^2 ||h_rn||^2 (fast path)."""
    nb = np.linalg.norm(h_br)
    nr = np.linalg.norm(h_rn)
    return float((nb * nr) ** 2)


def sc_cascaded_gain(h_br: np.ndarray, h_rn: np.ndarray) -> float:
    """Single-connected benchmark gain (sum_l |h_br,l| |h_rn,l|)^2."""
    return float(np.sum(np.abs(h_br) * np.abs(h_rn)) ** 2)
