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

from .nominal import NominalModel
from .params import PlantParams

if TYPE_CHECKING:
    from .controllers import L1Config


class UnstableSystemError(ValueError):
    """An operation that requires a strictly stable system got an unstable one."""


# Al-Mohy & Higham, "A new scaling and squaring algorithm for the matrix
# exponential", SIAM J. Matrix Anal. Appl. 31(3), 2009. Per Pade degree m:
# theta_m, the largest 1-norm at which the [m/m] approximant is accurate to
# unit roundoff (their Table 3.1); 1/|c_{2m+1}|, the reciprocal of the leading
# coefficient of its backward-error series (their eq. 5.1); and the
# coefficients b_0..b_m of the approximant.
_PADE = {
    3: (1.495585217958292e-2, 100800.0, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, 10059033600.0,
        (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, 4487938430976000.0,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068, 5914384781877411840000.0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (4.25, 113250775606021113483283660800000000.0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
          16380.0, 182.0, 1.0)),
}


def _onenorm(X: np.ndarray) -> float:
    return float(np.abs(X).sum(axis=0).max())


def _extra_squarings(A: np.ndarray, m: int) -> int:
    """Squarings to add so the degree-m approximant of A stays within unit
    roundoff in relative backward error (Al-Mohy & Higham's ell_m), from the
    exact 1-norm of abs(A)^(2m+1)."""
    power_norm = _onenorm(np.linalg.matrix_power(np.abs(A), 2 * m + 1))
    if not power_norm:
        return 0
    alpha = power_norm / (_onenorm(A) * _PADE[m][1])
    return max(math.ceil(math.log2(alpha / 2.0**-53) / (2 * m)), 0)


def _pade_solve(A: np.ndarray, evens: list, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of e^A from the even powers [I, A^2, ...]."""
    b = _PADE[m][2]
    U = A @ sum(b[k + 1] * evens[k // 2] for k in range(0, m, 2))
    V = sum(b[k] * evens[k // 2] for k in range(0, m + 1, 2))
    return np.linalg.solve(V - U, V + U)


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling and squaring with a [m/m] Pade approximant, the
    algorithm of Al-Mohy & Higham (2009) that ``scipy.linalg.expm`` runs.

    The degree m in {3, 5, 7, 9, 13} and the number of squarings s come from
    exact 1-norms of powers of A t, ||(A t)^k||^(1/k), which bound the
    approximant's backward error far more tightly than ||A t|| does on the
    canonical-form realizations the design condition exponentiates: at
    l1_norm's step their 1-norms reach about 4e3 while no eigenvalue exceeds
    0.01 in modulus. The cost is a few products of n x n matrices, cheap for
    the n <= 16 here. Numpy only: the L1 norms, and so ``analyze condition``,
    never load scipy. Raises ValueError for non-finite entries.
    """
    A = np.asarray(A, dtype=float) * t
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    evens = [np.eye(len(A)), A2, A4, A6]
    d4, d6 = _onenorm(A4) ** 0.25, _onenorm(A6) ** (1 / 6)
    eta = max(d4, d6)
    for m in (3, 5):
        if eta < _PADE[m][0] and _extra_squarings(A, m) == 0:
            return _pade_solve(A, evens, m)
    evens.append(A4 @ A4)
    d8 = _onenorm(evens[4]) ** 0.125
    eta = max(d6, d8)
    for m in (7, 9):
        if eta < _PADE[m][0] and _extra_squarings(A, m) == 0:
            return _pade_solve(A, evens, m)
    d10 = _onenorm(A4 @ A6) ** 0.1
    eta = min(eta, max(d8, d10))
    s = max(math.ceil(math.log2(eta / _PADE[13][0])), 0) if eta > 0.0 else 0
    s += _extra_squarings(A * 2.0**-s, 13)
    # degree 13 splits as U = B [B^6 (b13 B^6 + b11 B^4 + b9 B^2) + ...],
    # so it costs three products beyond the powers
    b = _PADE[13][2]
    B, B2, B4, B6 = (X * 2.0 ** (-k * s) for X, k in ((A, 1), (A2, 2), (A4, 4), (A6, 6)))
    ident = evens[0]
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
    from ``matrix_exponential``: on A_m the two agree to within 3e-16 of the
    largest entry but not bit for bit, and the benchmark pins the suite CSVs,
    which every controller's hold pair feeds, byte for byte to scipy's
    rounding. The scipy-free runtime item of ROADMAP.md replaces this call
    with a closed form once the benchmark gates those files by value. scipy
    is imported here, at the first hold pair, not with the module: loading it
    costs about 0.3 s, and commands that build no adaptive controller never
    pay it. Python's import lock makes a first call from concurrent workers
    safe. Raises ValueError for non-finite entries.
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
    """Roots of a polynomial of degree at least 1 (leading zeros dropped),
    as companion-matrix eigenvalues.

    An m-fold root comes back as a cluster of radius O(eps^(1/m)) about it;
    callers that know a repeated root write the polynomial about it instead.
    """
    c = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "f")
    if len(c) < 2:
        raise ValueError("polynomial degree must be at least 1")
    return np.roots(c)


def contact_polynomial(omega: float, lam: float) -> np.ndarray:
    """Closed-loop characteristic polynomial with contact-stiffness ratio lam.

    Q(s) = s^4 + 4 w s^3 + (6 w^2 + lam) s^2 + (4 w^3 + 4 w lam) s
         + (w^4 + 5 lam w^2),   lam = K_e / J_a.

    It is (s + w)^4 + lam ((s + 2 w)^2 + w^2), so at lam = 0 it collapses
    to (s + w)^4.
    """
    w = omega
    return np.array([
        1.0,
        4.0 * w,
        6.0 * w * w + lam,
        4.0 * w ** 3 + 4.0 * w * lam,
        w ** 4 + 5.0 * lam * w * w,
    ])


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
    """Roots of the contact characteristic polynomial over a lambda grid.

    The roots are solved about the nominal pole -w: in p = s + w the
    polynomial is p^4 + lam p^2 + 2 w lam p + 2 w^2 lam, whose four roots
    at lam = 0 are exactly p = 0, so that row is exactly -w.
    """
    lam = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if np.any(lam < 0.0):
        raise ValueError("lambda gridpoints must be nonnegative")
    roots = np.empty((len(lam), 4), dtype=complex)
    flags = np.zeros(len(lam), dtype=bool)
    for i, lv in enumerate(lam):
        r = polynomial_roots([1.0, 0.0, lv, 2.0 * omega * lv, 2.0 * omega * omega * lv]) - omega
        roots[i] = r[np.lexsort((-r.imag, r.real))]  # by real part, +imag first
        scale = max(1.0, float(np.max(np.abs(r))))
        flags[i] = bool(np.any(np.abs(r.imag) > 1e-8 * scale))
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

    Blocks of K steps march as one product R X, with the output rows
    R = [C E; C E^2; ...; C E^K] built by doubling and X <- E^K X carrying
    the block start. K is the largest power of two that keeps the product's
    K p n m multiply-adds within 2^16, or the first to cover every step.
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
    R, P = C @ Ed, Ed
    while len(R) < steps * p and 2 * len(R) * n * m <= _BLOCK_MADDS:
        R, P = np.vstack([R, R @ P]), P @ P
    X = B
    acc = np.zeros((p, m))
    g_prev = np.abs(C @ X)
    for start in range(0, steps * p, len(R)):
        g = np.abs(R[: steps * p - start] @ X).reshape(-1, p, m)
        acc += (0.5 * dt) * (g_prev + 2.0 * g[:-1].sum(axis=0) + g[-1])
        X, g_prev = P @ X, g[-1]
    return float(np.max(np.sum(acc, axis=1)))


def filtered_resolvent(
    model: NominalModel,
    input_columns: np.ndarray,
    filter_num: np.ndarray,
    filter_den: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) of the state output of (sI - A_m)^-1 [columns] with a scalar
    filter on every input channel: one reference-loop transfer piece."""
    cols = np.asarray(input_columns, dtype=float).reshape(len(model.A_m), -1)
    Af, Bf, Cf, Df = observable_realization([filter_num], filter_den)
    nf = Af.shape[0]
    m = cols.shape[1]
    n = model.A_m.shape[0]
    # one filter replica per input, then the resolvent
    A = np.zeros((m * nf + n, m * nf + n))
    B = np.zeros((m * nf + n, m))
    for j in range(m):
        s = slice(j * nf, (j + 1) * nf)
        A[s, s] = Af
        B[s.start:s.stop, j] = Bf[:, 0]
        A[m * nf:, s] += np.outer(cols[:, j], Cf[0])
    A[m * nf:, m * nf:] = model.A_m
    B[m * nf:, :] = cols * Df[0, 0]
    C = np.zeros((n, m * nf + n))
    C[:, m * nf:] = np.eye(n)
    return A, B, C


def reference_loop_pieces(model: NominalModel, cfg: L1Config):
    """The three (A, B, C) transfer blocks of the idealized reference loop.

    G_1 = (sI - A_m)^-1 B_m  (1 - C(s))   matched-disturbance path
    G_2 = (sI - A_m)^-1 B_um (1 - C(s))   unmatched-disturbance path
    G_d = (sI - A_m)^-1 B_m  C(s)         command path
    """
    num_c, den = shaping_filter_polynomials(cfg.T, cfg.K_a)
    num_1mc = np.polysub(den, np.concatenate([np.zeros(len(den) - len(num_c)), num_c]))
    g1 = filtered_resolvent(model, model.B_m, num_1mc, den)
    g2 = filtered_resolvent(model, model.B_um, num_1mc, den)
    gd = filtered_resolvent(model, model.B_m, num_c, den)
    return g1, g2, gd


# ---------------------------------------------------------------------------
# design condition for the reference-system bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityBudget:
    """Disturbance envelope: peak bounds linear in the state peak.

    Matched channel:   |sigma1| <= L_1 ||x||_inf + B_1
    Unmatched channel: |sigma2| <= L_2 ||x||_inf + B_2
    The derived quantities l_0 = L_1 / L_2 and B_0 = max(B_1 / l_0, B_2)
    repackage the pair for the filter design condition; the degenerate
    combinations resolve as: l_0 = 0 when L_1 = 0, the B_1/l_0 term drops
    when B_1 = 0 and is infinite when B_1 > 0 with l_0 = 0.
    """

    L_1: float = 0.0
    B_1: float = 0.0
    L_2: float = 0.0
    B_2: float = 0.0
    rho_r: float | None = None

    def __post_init__(self):
        for name in ("L_1", "B_1", "L_2", "B_2"):
            if not 0.0 <= getattr(self, name) < math.inf:  # nan fails too
                raise ValueError(f"{name} must be nonnegative and finite")

    @property
    def l_0(self) -> float:
        if self.L_2 > 0.0:
            return self.L_1 / self.L_2
        return 0.0 if self.L_1 == 0.0 else math.inf

    @property
    def B_0(self) -> float:
        l0 = self.l_0
        if l0 > 0.0 and math.isfinite(l0):
            return max(self.B_1 / l0, self.B_2)
        if self.B_1 == 0.0:
            return self.B_2
        return math.inf

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
        The matched channel is taken as fully covered by the disturbance
        observer, so L_1 = B_1 = 0.
        """
        masses = list(masses)
        if not masses:
            raise ValueError("envelope needs at least one test mass")
        for m in masses:
            if not 0.0 <= m < math.inf:  # nan fails too
                raise ValueError(f"test mass {m!r} must be nonnegative and finite")
        if gravity_comp:
            worst = max(abs(m - params.m_0) for m in masses)
        else:
            worst = max(abs(m) for m in masses)
        b2 = (worst / params.m_0) * params.G_0 / params.J_a
        return StabilityBudget(
            L_1=0.0,
            B_1=0.0,
            L_2=max_contact_stiffness / params.J_a,
            B_2=b2,
        )


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
    model: NominalModel,
    cfg: L1Config,
    budget: StabilityBudget,
    qd_peak: float = math.pi / 2,
) -> ConditionReport:
    """Certify that some finite reference bound rho_r satisfies

        ||G_1|| l_0 + ||G_2|| < (rho_r - c) / (L_2 rho_r + B_0),
        c = ||G_d|| |K_g| |q_d|_peak

    (Hovakimyan & Cao, L1 Adaptive Control Theory, SIAM 2010): the command
    enters the loop as K_g q_d, and its share c of the state peak comes off
    rho_r. A zero denominator holds when the numerator is positive.

    With the budget's fixed candidate rho_r the report is about that
    candidate alone. Without one the answer is closed-form, since the
    right-hand side never decreases in rho_r and tends to 1/L_2 (infinity
    when L_2 = 0): the condition holds exactly when lhs L_2 < 1, ``rho_best``
    is the least certified bound (c + lhs B_0) / (1 - lhs L_2), every larger
    rho_r being certified (infinite when violated), ``rhs_best`` is the
    supremum 1/L_2, and ``margin`` is rhs_best - lhs. An unstable closed
    filter C(s) makes the norms infinite; that is reported as violated, not
    raised: it answers about a candidate.
    """
    num_c, den = shaping_filter_polynomials(cfg.T, cfg.K_a)
    if np.max(np.roots(den).real) >= 0.0:
        return ConditionReport(
            satisfied=False, margin=-math.inf, lhs=math.inf, rhs_best=0.0,
            rho_best=math.nan, norm_g1=math.inf, norm_g2=math.inf,
            norm_gd=math.inf, reason="closed filter C(s) unstable",
        )
    n1, n2, nd = (l1_norm(*g) for g in reference_loop_pieces(model, cfg))

    l0, b0 = budget.l_0, budget.B_0
    lhs = n1 * l0 + n2
    if not math.isfinite(lhs) or not math.isfinite(b0):
        return ConditionReport(
            satisfied=False, margin=-math.inf, lhs=lhs, rhs_best=0.0,
            rho_best=math.nan, norm_g1=n1, norm_g2=n2, norm_gd=nd,
            reason="degenerate budget (infinite l_0 or B_0)",
        )

    command = nd * abs(model.K_g) * abs(qd_peak)
    L_2 = budget.L_2
    if budget.rho_r is None:
        satisfied = lhs * L_2 < 1.0
        rho = (command + lhs * b0) / (1.0 - lhs * L_2) if satisfied else math.inf
        rhs = 1.0 / L_2 if L_2 > 0.0 else math.inf
    else:
        rho = budget.rho_r
        num, denom = rho - command, L_2 * rho + b0
        rhs = num / denom if denom > 0.0 else (math.inf if num > 0.0 else -math.inf)
        satisfied = rhs > lhs
    return ConditionReport(
        satisfied=bool(satisfied),
        margin=rhs - lhs,
        lhs=lhs,
        rhs_best=rhs,
        rho_best=float(rho),
        norm_g1=n1,
        norm_g2=n2,
        norm_gd=nd,
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
