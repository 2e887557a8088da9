"""Closed-loop nominal model: state feedback gains, LTI quadruple, transfers.

The baseline position law places all four closed-loop poles at -omega via

    K_p = K_f / J_a,   K_r = 4 / J_a,   K_v = 4 omega,   omega = sqrt(K_f / J_a)

which, written as state feedback u1 = -K x over x = [q, q', theta, theta'],
gives K = [-K_r K_f, 0, K_p + K_r K_f, K_v]. The resulting closed-loop
matrix A_m together with the matched input column B_m, the unmatched columns
B_um and the output row c form ``build_nominal_model(params)``, the one model
that the adaptive layer predicts against and the design condition certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import PlantParams


@dataclass(frozen=True)
class RrcGains:
    """Pole-placement gains of the baseline law plus the stacked K row."""

    K_p: float
    K_r: float
    K_v: float
    K: np.ndarray = field(repr=False)


def build_rrc_gains(params: PlantParams) -> RrcGains:
    K_p = params.K_f / params.J_a
    K_r = 4.0 / params.J_a
    K_v = 4.0 * params.omega
    K = np.array([-K_r * params.K_f, 0.0, K_p + K_r * params.K_f, K_v])
    return RrcGains(K_p=K_p, K_r=K_r, K_v=K_v, K=K)


def open_loop_matrix(params: PlantParams) -> np.ndarray:
    """Linear plant with gravity, friction and disturbance stripped and the
    motor side reduced to a double integrator driven by u."""
    a = params.K_f / params.J_a
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-a, 0.0, a, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])


@dataclass(frozen=True)
class NominalModel:
    """Closed-loop quadruple (A_m, B_m, B_um, c) with feedforward gain K_g."""

    A_m: np.ndarray
    B_m: np.ndarray
    B_um: np.ndarray
    c: np.ndarray
    K_g: float

    @property
    def b_stacked(self) -> np.ndarray:
        """[B_m B_um], a 4x4 permutation of identity columns."""
        return np.column_stack([self.B_m, self.B_um])


def build_nominal_model(params: PlantParams) -> NominalModel:
    if not isinstance(params, PlantParams):  # say, a NominalModel passed for the plant
        raise TypeError(f"the nominal model takes PlantParams, not {type(params).__name__}")
    B_m = np.array([0.0, 0.0, 0.0, 1.0])
    A_m = open_loop_matrix(params) - np.outer(B_m, build_rrc_gains(params).K)
    B_um = np.eye(4, 3)  # unmatched inputs enter the q, q' and theta rows
    c = np.array([1.0, 0.0, 0.0, 0.0])  # output is the link position q
    if np.max(np.linalg.eigvals(A_m).real) >= 0.0:
        raise ValueError("closed-loop matrix is not Hurwitz")
    try:
        dc = float(c @ np.linalg.solve(A_m, B_m))
    except np.linalg.LinAlgError as exc:
        raise ValueError("closed-loop matrix is singular, cannot form K_g") from exc
    if dc == 0.0:
        raise ValueError("zero DC path from matched input, cannot form K_g")
    K_g = -1.0 / dc
    return NominalModel(A_m=A_m, B_m=B_m, B_um=B_um, c=c, K_g=K_g)


def transfer_from_state_space(A, B, c) -> tuple[np.ndarray, np.ndarray]:
    """Exact polynomial form (num, den) of c (sI - A)^-1 B, descending powers
    of s, each of length n + 1.

    ``B`` is one input column, with a 1-D ``num``, or an (n, m) matrix of
    columns, with one ``num`` row per column. Uses the Faddeev-LeVerrier
    adjugate expansion, so numerators and denominator come out of one finite
    recursion instead of a fit; the denominator is the monic characteristic
    polynomial of A.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float).reshape(-1)
    n = A.shape[0]
    if A.shape != (n, n) or B.ndim not in (1, 2) or len(B) != n or c.shape != (n,):
        raise ValueError("inconsistent state-space dimensions")
    den = np.zeros(n + 1)
    den[0] = 1.0
    num = np.zeros(B.shape[1:] + (n + 1,))
    R = np.eye(n)
    for k in range(1, n + 1):
        num[..., k] = c @ R @ B  # coefficient of s^(n-k) in c adj(sI-A) B
        M = A @ R
        den[k] = -np.trace(M) / k
        R = M + den[k] * np.eye(n)
    return num, den
