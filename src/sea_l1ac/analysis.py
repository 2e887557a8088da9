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


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling-and-squaring with a Pade approximant.

    scipy is imported here, at the first exponential, not with the module:
    loading it costs about 0.3 s, and commands that take no exponential
    (metrics, the root locus, rrc runs) then never pay it. Python's import
    lock makes a first call from concurrent workers safe.
    """
    import scipy.linalg

    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return scipy.linalg.expm(A * t)


def hold_response(A: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold pair over a period t: E = e^{A t} and
    Phi = A^-1 (E - I), the integral of e^{A s} over [0, t]."""
    A = np.asarray(A, dtype=float)
    E = matrix_exponential(A, t)
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


def l1_norm(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """L1 norm of the strictly proper system (A, B, C): the integral of the
    absolute impulse response C e^{A t} B, max row sum for MIMO.

    The impulse response is sampled over 20 slowest time constants with the
    exact one-step propagator E = e^{A dt}, dt a hundredth of the fastest
    time constant, and integrated with the trapezoidal rule. ``B`` and ``C``
    are 2-D, one column per input and one row per output. Raises
    UnstableSystemError for systems that are not strictly stable.

    Blocks of K steps march as one product R X, with the output rows
    R = [C E; C E^2; ...; C E^K] built by doubling and X <- E^K X carrying
    the block start. K is the largest power of two that keeps the product's
    K p n m multiply-adds within 2^16, or the first to cover every step.
    OpenBLAS runs such a product on one thread; from about 2^18 it wakes its
    thread pool, which contends with the pool scipy.linalg leaves spinning,
    and the march turns several times slower on 2 CPUs.
    """
    eig = np.linalg.eigvals(A)
    alpha = float(np.max(eig.real))
    if alpha >= 0.0:
        raise UnstableSystemError("impulse response does not decay; L1 norm undefined")
    tau_slow = -1.0 / alpha
    dt = -1.0 / float(np.min(eig.real)) / 100.0
    steps = int(math.ceil(20.0 * tau_slow / dt))
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
