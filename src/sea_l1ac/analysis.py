"""Numerical linear-systems toolkit shared by the controllers and the design checks.

Covers the exact zero-order-hold pair (E, Phi), the polynomials of the
low-pass filter C(s), one observable-canonical realization for filters over
a shared denominator, polynomial roots, the contact-stiffness root locus
solved about its repeated nominal pole, peak-gain (L1) norms from
impulse-response quadrature, the filter design condition that certifies the
reference system's bound, and the closed-form nominal step response.

Everything here is pure and safe to evaluate from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nominal import NominalModel, build_nominal_model
from .params import PlantParams
from .plant import gravity_gain

if TYPE_CHECKING:
    from .controllers import L1Config


class UnstableSystemError(ValueError):
    """An operation that requires a strictly stable system got an unstable one."""


# Al-Mohy & Higham, "A new scaling and squaring algorithm for the matrix
# exponential", SIAM J. Matrix Anal. Appl. 31(3), 2009, for the [13/13] Pade
# approximant: theta_13, the largest 1-norm at which it is accurate to unit
# roundoff (their Table 3.1); 1/|c_27|, the reciprocal of the leading
# coefficient of its backward-error series (their eq. 5.1); and its
# coefficients b_0..b_13 over b_0, so that b_0 = 1 and e^0 is exactly I.
_THETA_13 = 4.25
_INV_C27 = 113250775606021113483283660800000000.0
_PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))


def _onenorm(X: np.ndarray) -> float:
    return float(np.abs(X).sum(axis=0).max())


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling and squaring with the [13/13] Pade approximant: the
    degree-13 branch of the algorithm of Al-Mohy & Higham (2009) that
    ``scipy.linalg.expm`` runs.

    The number of squarings s comes from exact 1-norms of powers of A t,
    ||(A t)^k||^(1/k), which bound the approximant's backward error far more
    tightly than ||A t|| does on the canonical-form realizations the design
    condition exponentiates: at l1_norm's step their 1-norms reach about 4e3
    while no eigenvalue exceeds 0.01 in modulus. Degree 13 is the only one
    kept: the algorithm's degrees 3 to 9 are no more accurate where they
    apply, and there they save only a few products of the n <= 16 matrices
    here, tens of microseconds a call. Numpy only: the L1 norms, and so
    ``analyze condition``, never load scipy. Raises ValueError for
    non-finite entries.
    """
    A = np.asarray(A, dtype=float) * t
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    d6, d8, d10 = (_onenorm(X) ** (1 / k) for X, k in ((A6, 6), (A4 @ A4, 8), (A4 @ A6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if eta > 0.0 else 0
    # extra squarings if ||abs(B)^27||_1 puts the backward error above unit roundoff
    B = A * 2.0**-s
    power_norm = _onenorm(np.linalg.matrix_power(np.abs(B), 27))
    if power_norm:
        alpha = power_norm / (_onenorm(B) * _INV_C27)
        s += max(math.ceil(math.log2(alpha / 2.0**-53) / 26), 0)
    # U = B [B^6 (b13 B^6 + b11 B^4 + b9 B^2) + ...]: three products beyond the powers
    b = _PADE_13
    B, B2, B4, B6 = (X * 2.0 ** (-k * s) for X, k in ((A, 1), (A2, 2), (A4, 4), (A6, 6)))
    ident = np.eye(len(A))
    U = B @ (B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
             + b[7] * B6 + b[5] * B4 + b[3] * B2 + b[1] * ident)
    V = (B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2)
         + b[6] * B6 + b[4] * B4 + b[2] * B2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X


def hold_response(A: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold pair over a period t: E = e^{A t} and
    Phi = A^-1 (E - I), the integral of e^{A s} over [0, t].

    E comes from ``scipy.linalg.expm``, the package's one scipy call, and not
    from ``matrix_exponential``: on A_m the two agree to within 5e-16 of the
    largest entry but not bit for bit, and the benchmark pins the suite CSVs,
    which every controller's hold pair feeds, byte for byte to scipy's
    rounding; ROADMAP.md's scipy-free runtime item makes it
    ``matrix_exponential`` once the benchmark gates those files by value.
    scipy is imported here, at the first hold pair, not with the module:
    loading it costs about 0.3 s, and commands that build no adaptive
    controller never pay it. Python's import lock makes a first call from
    concurrent workers safe. Raises ValueError for non-finite entries.
    """
    import scipy.linalg

    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    E = scipy.linalg.expm(A * t)
    return E, np.linalg.solve(A, E - np.eye(A.shape[0]))


def shaping_filter_polynomials(T: float, K_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of C(s) = K_a / (s (T s + 1)^3 + K_a)."""
    lag = np.array([T, 1.0])
    den = np.polymul(np.polymul(lag, lag), lag)
    den = np.polymul(den, np.array([1.0, 0.0]))
    den = np.polyadd(den, np.array([K_a]))
    return np.array([K_a]), den


def shaping_filter_stable(T: float, K_a: float) -> bool:
    """Whether C(s) = K_a / (s (T s + 1)^3 + K_a) is strictly stable, for
    T > 0 and K_a > 0: exactly when K_a T < 8/9.

    The Routh array of its denominator T^3 s^4 + 3 T^2 s^3 + 3 T s^2 + s + K_a
    has first column T^3, 3 T^2, 8 T / 3, 1 - 9 K_a T / 8, K_a. Only the
    fourth entry can be nonpositive, and it is positive exactly when
    K_a T < 8/9; at equality a pair of roots sits on the imaginary axis.
    """
    return K_a * T < 8 / 9


def observable_realization(numerators, den):
    """Observable canonical (A, B, C, D) of proper filters over one denominator.

    One shared state chain, one input column per numerator and the first
    state as the single output; each numerator's direct part goes to its
    column of D. Raises ValueError for an improper numerator.
    """
    den = np.asarray(den, dtype=float)
    order = len(den) - 1
    den_m = den / den[0]
    A = np.zeros((order, order))
    A[:, 0] = -den_m[1:]
    A[: order - 1, 1:] = np.eye(order - 1)
    B = np.zeros((order, len(numerators)))
    D = np.zeros((1, len(numerators)))
    for j, num in enumerate(numerators):
        num = np.asarray(num, dtype=float)
        if len(num) > order + 1:
            raise ValueError("numerator degree exceeds the denominator's")
        num_m = np.zeros(order + 1)
        num_m[order + 1 - len(num):] = num / den[0]
        D[0, j] = num_m[0]
        B[:, j] = num_m[1:] - num_m[0] * den_m[1:]
    C = np.zeros((1, order))
    C[0, 0] = 1.0
    return A, B, C, D


# ---------------------------------------------------------------------------
# polynomial roots and the contact-stiffness root locus
# ---------------------------------------------------------------------------

def polynomial_roots(coeffs) -> np.ndarray:
    """Roots of polynomials of degree at least 1 with nonzero leading
    coefficients, as companion-matrix eigenvalues.

    ``coeffs`` is one polynomial (1-D, roots 1-D) or a stack of same-degree
    rows (2-D, row k's roots in row k). The companion matrices, built as
    ``np.roots`` builds them, go to one batched ``np.linalg.eigvals``, so a
    polynomial's roots come out as ``np.roots`` gives them when its trailing
    coefficient is nonzero.

    An m-fold root comes back as a cluster of radius O(eps^(1/m)) about it;
    callers that know a repeated root write the polynomial about it instead.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] < 2:
        raise ValueError("polynomials are 1-D or a 2-D stack, with degree at least 1")
    rows = np.atleast_2d(c)
    if not np.all(rows[:, 0]):
        raise ValueError("every polynomial needs a nonzero leading coefficient")
    degree = rows.shape[1] - 1
    companion = np.zeros((len(rows), degree, degree))
    companion[:, 1:, :-1] = np.eye(degree - 1)
    companion[:, 0, :] = -rows[:, 1:] / rows[:, :1]
    roots = np.linalg.eigvals(companion)
    return roots if c.ndim == 2 else roots[0]


@dataclass
class RootLocusResult:
    """Per-lambda closed-loop roots and a conjugate-pair flag."""

    lam: np.ndarray
    roots: np.ndarray          # shape (len(lam), 4)
    has_conjugate_pair: np.ndarray

    def csv_rows(self):
        header = ["lambda"]
        for k in range(self.roots.shape[1]):
            header += [f"root{k + 1}_re", f"root{k + 1}_im"]
        header.append("has_conjugate_pair")
        yield header
        for lam, rr, flag in zip(self.lam, self.roots, self.has_conjugate_pair):
            row = [lam]
            for r in rr:
                row += [r.real, r.imag]
            row.append(int(flag))
            yield row


def root_locus(omega: float, lambda_grid) -> RootLocusResult:
    """Roots of the closed loop's characteristic polynomial against a wall
    of contact-stiffness ratio lam = K_e / J_a, over a lambda grid:

        Q(s) = (s + w)^4 + lam ((s + 2 w)^2 + w^2).

    The roots are solved about the nominal pole -w: in p = s + w the
    polynomial is p^4 + lam p^2 + 2 w lam p + 2 w^2 lam, whose four roots
    at lam = 0 are exactly p = 0, so that row is exactly -w. The whole grid
    is one stack for ``polynomial_roots``. Raises ValueError naming the
    first lambda that is negative, not finite, or large enough to overflow
    a coefficient.
    """
    lam = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    with np.errstate(over="ignore"):
        coeffs = np.stack([np.ones_like(lam), np.zeros_like(lam), lam,
                           2.0 * omega * lam, 2.0 * omega * omega * lam], axis=1)
    for bad, why in ((~((lam >= 0.0) & (lam < math.inf)), "must be finite and nonnegative"),
                     (~np.isfinite(coeffs).all(axis=1), "overflows the contact polynomial")):
        if bad.any():
            raise ValueError(f"lambda gridpoint {float(lam[bad.argmax()])!r} {why}")
    r = polynomial_roots(coeffs) - omega
    order = np.lexsort((-r.imag, r.real), axis=-1)  # by real part, +imag first
    roots = np.take_along_axis(r, order, axis=-1).astype(complex, copy=False)
    scale = np.maximum(1.0, np.abs(r).max(axis=-1, keepdims=True))
    flags = np.any(np.abs(r.imag) > 1e-8 * scale, axis=-1)
    return RootLocusResult(lam=lam, roots=roots, has_conjugate_pair=flags)


# ---------------------------------------------------------------------------
# L1 (peak gain) norms from impulse-response quadrature
# ---------------------------------------------------------------------------

_BLOCK_MADDS = 2**16  # multiply-adds per march product; see l1_norm
# Samples l1_norm marches at most, 0.5-1.2 s per norm of the reference loop
# on 2 CPUs. The shipped designs need at most 4.0e4; a stiffness ratio (slowest
# over fastest time constant) past 5000 needs more.
_MAX_STEPS = 10**7


def l1_norm(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """L1 norm of the strictly proper system (A, B, C): the integral of the
    absolute impulse response C e^{A t} B, max row sum for MIMO.

    The impulse response is sampled over 20 slowest time constants with the
    exact one-step propagator E = e^{A dt}, dt a hundredth of the fastest
    time constant, and integrated with the trapezoidal rule. ``B`` and ``C``
    are 2-D, one column per input and one row per output. Raises
    UnstableSystemError for systems that are not strictly stable, and
    ValueError when the march would take more than ``_MAX_STEPS`` samples,
    2000 times the ratio of the slowest to the fastest time constant (a
    filter gain of 1e-3 at T = 10 ms needs 2e8 samples, about 45 s).

    Blocks of K steps march as one product X^T R^T, with X <- E^K X carrying
    the block start. R^T is a contiguous (n, p K) array that holds the rows
    C_i E^k, k = 1..K, transposed and output-major, so each output's K
    samples are adjacent; the doubling fills it in place, one half from the
    other. Each block's (m, p K) product goes into one reused buffer, takes
    its absolute value in place and is summed over the samples in one
    contiguous reduction, and the trapezoid's end corrections are applied
    once, after the last block. K is the largest power of two that keeps
    the product's K p n m multiply-adds within 2^16, or the first to cover
    every step, so neither array exceeds 2^16 numbers: the march never holds
    the whole response.
    OpenBLAS runs such a product on one thread; from about 2^18 it wakes its
    thread pool, which contends with the pool scipy.linalg leaves spinning,
    and the march turns several times slower on 2 CPUs. The exponential here
    is numpy's, so only a process that has also discretized an adaptive
    controller (``hold_response``) has that second pool.
    """
    eig = np.linalg.eigvals(A)
    alpha = float(np.max(eig.real))
    if alpha >= 0.0:
        raise UnstableSystemError("impulse response does not decay; L1 norm undefined")
    tau_slow = -1.0 / alpha
    tau_fast = -1.0 / float(np.min(eig.real))
    dt = tau_fast / 100.0
    steps = int(math.ceil(20.0 * tau_slow / dt))
    if steps > _MAX_STEPS:
        raise ValueError(
            f"L1 norm too stiff to integrate: slowest time constant {tau_slow:.3g} s, "
            f"fastest {tau_fast:.3g} s, {steps:.3g} samples (at most {_MAX_STEPS:.0e})"
        )
    Ed = matrix_exponential(A, dt)
    p, (n, m) = C.shape[0], B.shape
    K = 1
    while K < steps and 2 * K * p * n * m <= _BLOCK_MADDS:
        K *= 2
    buf = np.empty(n * p * K + 7)  # RT 64-byte aligned: misaligned, the march is ~15 % slower
    RT = buf[(-buf.ctypes.data % 64) // 8:][:n * p * K].reshape(n, p * K)
    per_output = RT.reshape(n, p, K).transpose(1, 0, 2)  # [i, :, k] = (C_i E^(k+1))^T
    per_output[:, :, 0] = C @ Ed
    P, size = Ed, 1
    while size < K:
        np.matmul(P.T, per_output[:, :, :size], out=per_output[:, :, size:2 * size])
        P, size = P @ P, 2 * size
    g = np.empty((m, p * K))
    samples = g.reshape(m, p, K)
    total = np.zeros((m, p))
    X = B
    for start in range(0, steps, K):
        np.matmul(X.T, RT, out=g)
        np.abs(g, out=g)
        total += samples[:, :, :steps - start].sum(axis=-1)
        X = P @ X
    # trapezoid: every sample counts once but the first and last count half
    ends = np.abs(C @ B).T - samples[:, :, (steps - 1) % K]
    return float(np.max(np.sum(dt * total + (0.5 * dt) * ends, axis=0)))


def filtered_resolvent(
    model: NominalModel,
    input_columns: np.ndarray,
    filters: tuple,
    column: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) of the state output of (sI - A_m)^-1 [columns] with the
    scalar filter ``column`` of the realization ``filters`` (an
    ``observable_realization``) on every input channel: one reference-loop
    transfer piece."""
    cols = np.asarray(input_columns, dtype=float).reshape(len(model.A_m), -1)
    Af, Bf, Cf, Df = filters
    (n, m), nf = cols.shape, len(Af)
    # one filter replica per input, then the resolvent
    A = np.zeros((m * nf + n, m * nf + n))
    B = np.zeros((m * nf + n, m))
    for j in range(m):
        s = slice(j * nf, (j + 1) * nf)
        A[s, s] = Af
        B[s, j] = Bf[:, column]
        A[m * nf:, s] += np.outer(cols[:, j], Cf[0])
    A[m * nf:, m * nf:] = model.A_m
    B[m * nf:, :] = cols * Df[0, column]
    return A, B, np.hstack([np.zeros((n, m * nf)), np.eye(n)])


def reference_loop_pieces(model: NominalModel, cfg: L1Config):
    """The three (A, B, C) transfer blocks of the idealized reference loop.

    G_1 = (sI - A_m)^-1 B_m  (1 - C(s))   matched-disturbance path (reported only)
    G_2 = (sI - A_m)^-1 B_um (1 - C(s))   unmatched-disturbance path
    G_d = (sI - A_m)^-1 B_m  C(s)         command path

    1 - C(s) and C(s) share one realization, as its columns 0 and 1.
    """
    num_c, den = shaping_filter_polynomials(cfg.T, cfg.K_a)
    filters = observable_realization([np.polysub(den, num_c), num_c], den)
    return (filtered_resolvent(model, model.B_m, filters, 0),
            filtered_resolvent(model, model.B_um, filters, 0),
            filtered_resolvent(model, model.B_m, filters, 1))


# ---------------------------------------------------------------------------
# design condition for the reference-system bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityBudget:
    """Unmatched-disturbance envelope, a peak bound linear in the state peak:

        |sigma2| <= L_2 ||x||_inf + B_2

    The matched channel is left to the disturbance observer, so the budget
    charges nothing there.
    """

    L_2: float = 0.0
    B_2: float = 0.0

    def __post_init__(self):
        for name in ("L_2", "B_2"):
            if not 0.0 <= getattr(self, name) < math.inf:  # nan fails too
                raise ValueError(f"{name} must be nonnegative and finite")

    @staticmethod
    def from_envelope(
        params: PlantParams,
        masses,
        max_contact_stiffness: float = 0.0,
        gravity_comp: bool = True,
    ) -> "StabilityBudget":
        """Concrete bounds from the scenario envelope of a test campaign.

        The unmatched slope comes from the stiffest contact, the unmatched
        offset from the worst gravity torque left to the adaptive path (the
        load deviation when gravity is compensated, the full load otherwise).
        """
        masses = list(masses)
        if not masses:
            raise ValueError("envelope needs at least one test mass")
        for m in masses:
            if not 0.0 <= m < math.inf:  # nan fails too
                raise ValueError(f"test mass {m!r} must be nonnegative and finite")
        if not isinstance(gravity_comp, bool):
            raise ValueError(f"gravity_comp must be a bool, not {gravity_comp!r}")
        if gravity_comp:
            worst = max(abs(m - params.m_0) for m in masses)
        else:
            worst = max(abs(m) for m in masses)
        l2 = max_contact_stiffness / params.J_a
        if not 0.0 <= l2 < math.inf:  # a negative, infinite or nan stiffness, or overflow
            raise ValueError(f"max contact stiffness {max_contact_stiffness!r} over "
                             f"J_a = {params.J_a!r} is not nonnegative and finite")
        b2 = gravity_gain(params, worst) / params.J_a
        if not b2 < math.inf:  # overflow; nan fails too
            raise ValueError(f"test masses {masses} give a gravity bound B_2 that is not finite")
        return StabilityBudget(L_2=l2, B_2=b2)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the filter design condition check."""

    satisfied: bool
    margin: float
    lhs: float
    rhs_best: float
    rho_best: float
    norm_g1: float
    norm_g2: float
    norm_gd: float
    reason: str = ""


def check_stability_condition(
    params: PlantParams,
    cfg: L1Config,
    budget: StabilityBudget,
    qd_peak: float = math.pi / 2,
) -> ConditionReport:
    """Whether some finite reference bound rho_r satisfies

        ||G_2|| < (rho_r - c) / (L_2 rho_r + B_2),   c = ||G_d|| |K_g| |q_d|_peak

    (Hovakimyan & Cao, L1 Adaptive Control Theory, SIAM 2010) for the loop
    of ``build_nominal_model(params)``, and the least one that does. The
    command enters the loop as K_g q_d, and its share c of the state peak
    comes off rho_r. The matched channel is left to the disturbance observer:
    ``norm_g1`` is reported but not charged.

    The right-hand side never decreases in rho_r and tends to 1/L_2
    (infinity when L_2 = 0), so the condition holds exactly when
    lhs L_2 < 1, with lhs = ||G_2||. ``rho_best`` is then the least
    certified bound (c + lhs B_2) / (1 - lhs L_2), every larger rho_r being
    certified (infinite when violated), ``rhs_best`` is the supremum 1/L_2,
    and ``margin`` is rhs_best - lhs. An unstable C(s), K_a T >= 8/9, makes
    the norms infinite; that is reported as violated, not raised.
    """
    if not -math.inf < qd_peak < math.inf:  # nan fails too
        raise ValueError(f"qd_peak must be finite, not {qd_peak!r}")
    model = build_nominal_model(params)
    if not shaping_filter_stable(cfg.T, cfg.K_a):
        return ConditionReport(
            satisfied=False, margin=-math.inf, lhs=math.inf, rhs_best=0.0,
            rho_best=math.nan, norm_g1=math.inf, norm_g2=math.inf,
            norm_gd=math.inf, reason="closed filter C(s) unstable",
        )
    n1, lhs, nd = (l1_norm(*g) for g in reference_loop_pieces(model, cfg))
    command = nd * abs(model.K_g) * abs(qd_peak)
    L_2 = budget.L_2
    rhs = 1.0 / L_2 if L_2 > 0.0 else math.inf
    satisfied = lhs * L_2 < 1.0
    return ConditionReport(
        satisfied=satisfied, margin=rhs - lhs, lhs=lhs, rhs_best=rhs,
        rho_best=(command + lhs * budget.B_2) / (1.0 - lhs * L_2) if satisfied else math.inf,
        norm_g1=n1, norm_g2=lhs, norm_gd=nd,
    )


# ---------------------------------------------------------------------------
# closed-form nominal response
# ---------------------------------------------------------------------------

def analytic_nominal_response(q_d: float, omega: float, t_grid) -> np.ndarray:
    """Step response of the quadruple pole w^4 / (s + w)^4.

    q(t) = q_d [1 - e^{-w t} (1 + w t + (w t)^2 / 2 + (w t)^3 / 6)], clamped
    to 0 for t < 0 so shifted onsets can reuse it.
    """
    t = np.asarray(t_grid, dtype=float)
    x = omega * np.maximum(t, 0.0)
    resp = q_d * (1.0 - np.exp(-x) * (1.0 + x + x * x / 2.0 + x ** 3 / 6.0))
    return np.where(t < 0.0, 0.0, resp)
