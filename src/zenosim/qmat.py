"""Dense complex linear-algebra kernel for small Hilbert spaces.

Hermitian eigendecomposition, unitary exponentials of Hermitian generators,
application of rank-4 superoperator tensors to density matrices, and the
validity diagnostics (hermiticity, trace, positivity) used throughout the
package.  Everything here is a pure function of ndarrays.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import (DimensionMismatch, InvalidDensityMatrix, NonHermitianInput,
                     QuadratureNotConverged)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


def _count(value, name: str, minimum: int = 0, below=ValueError) -> int:
    """value as an int >= minimum: ValueError, not TypeError, for a non-integer,
    and the exception `below` for a smaller one."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise below(f"{name} = {value} < {minimum}")
    return value


def _all_finite(values) -> bool:
    """Whether every entry is a finite number; an integer beyond the float
    range is not."""
    try:
        return bool(np.isfinite(np.asarray(values, dtype=float)).all())
    except OverflowError:
        return False


def _tolerance(value, name: str) -> float:
    """value as a float; ValueError unless it is finite and > 0, since a NaN
    tolerance would skip its check and a zero one climb a whole ladder."""
    if not (_all_finite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _relative(best) -> float:
    """Scale of a Romberg change: the largest magnitude of the best value."""
    return max(float(np.abs(best).max()), 1e-14)


def _romberg(evaluate, levels, tol: float, what: str, scale=None,
             error=QuadratureNotConverged):
    """evaluate(level) on each of at least two levels in turn, each value
    Richardson-extrapolated through every level before it, until the change
    max|new - old| of the extrapolated values, divided by scale(new) when
    given, is at most tol.  evaluate(level) is a rule of error O(h^2)
    (trapezoid, or Filon on a piecewise-linear factor) whose step h halves
    from each level to the next; of Romberg's table only the last row is
    kept.

    Returns (value, ladder), ladder the (level, change) of each level after the
    first.  When the levels run out, raises error(message, ladder), the message
    naming the change reached and the last level, at the {} of `what`.
    """
    ladder, row = [], []
    for level in levels:
        value = evaluate(level)
        old = row[-1] if row else None
        for j, prev in enumerate(row):
            row[j], value = value, value + (value - prev) / (4 ** (j + 1) - 1)
        row.append(value)
        if old is not None:
            change = float(np.abs(value - old).max())
            if scale is not None:
                change = float(change / scale(value))
            ladder.append((level, change))
            if change <= tol:
                return value, ladder
    raise error(f"{what.format(level)} still moving by {change:.2e} > {tol:.1e}", ladder)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m†|."""
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL, what: str = "matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonHermitianInput(f"{what} has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NonHermitianInput(f"{what} is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    return m


def herm_eig(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, u) with w real ascending and h = u @ diag(w) @ u†.
    Raises NonHermitianInput if the input fails the hermiticity check.
    """
    h = require_hermitian(h)
    w, u = np.linalg.eigh(h)
    return w, u


def unitary_exp(h: np.ndarray, angle_scale: float) -> np.ndarray:
    """exp(-1j * angle_scale * h) for Hermitian h, via eigendecomposition."""
    w, u = herm_eig(h)
    return (u * np.exp(-1j * angle_scale * w)) @ u.conj().T


def unitary_exp_stack(hs: np.ndarray, angle_scale: float) -> np.ndarray:
    """exp(-1j * angle_scale * h) for a stack of Hermitian matrices (..., d, d),
    rebuilt from each eigendecomposition as one batched product (u * phases) @ u†.

    No per-matrix hermiticity check; callers construct the stack from
    already-validated pieces.
    """
    w, u = np.linalg.eigh(hs)
    phases = np.exp(-1j * angle_scale * w)
    return (u * phases[..., None, :]) @ u.conj().swapaxes(-1, -2)


def apply_super(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a rank-4 tensor s[p, r, n, m] to rho: rho'_pr = sum_nm s_prnm rho_nm.

    The result is re-hermitized by averaging with its adjoint before return.
    """
    s = np.asarray(s)
    rho = np.asarray(rho, dtype=complex)
    if s.ndim != 4 or len(set(s.shape)) != 1:
        raise DimensionMismatch(f"supertensor must have shape (d,d,d,d), got {s.shape}")
    if rho.shape != s.shape[:2]:
        raise DimensionMismatch(
            f"density matrix shape {rho.shape} does not match tensor dimension {s.shape[0]}"
        )
    out = (s.reshape(rho.size, rho.size) @ rho.ravel()).reshape(rho.shape)  # Liouville form
    return 0.5 * (out + out.conj().T)


def trace_sum_rule_defect(s: np.ndarray) -> float:
    """Deviation of sum_p s[p,p,n,m] from the identity (trace preservation)."""
    d = s.shape[0]
    return float(np.abs(np.einsum("ppnm->nm", s) - np.eye(d)).max())


def check_density_matrix(rho: np.ndarray,
                         herm_tol: float = HERM_TOL,
                         trace_tol: float = TRACE_TOL,
                         eig_floor: float = EIG_FLOOR) -> np.ndarray:
    """Validate a density matrix; returns it as a complex ndarray.

    Checks that every entry is finite, hermiticity (entrywise), unit trace,
    and that the smallest eigenvalue does not fall below eig_floor.  The
    floor is slightly negative because repeated quadrature-built channels
    can produce harmless negative eigenvalues at rounding scale.  Raises
    ValueError unless herm_tol and trace_tol are finite and > 0 and eig_floor
    is finite.
    """
    herm_tol = _tolerance(herm_tol, "herm_tol")
    trace_tol = _tolerance(trace_tol, "trace_tol")
    if not _all_finite(eig_floor):
        raise ValueError(f"eig_floor must be finite, got {eig_floor!r}")
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidDensityMatrix("density matrix has non-finite entries")
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        raise InvalidDensityMatrix(f"hermiticity defect {defect:.3e} > {herm_tol:.1e}")
    tr = rho.trace()
    if abs(tr - 1.0) > trace_tol:
        raise InvalidDensityMatrix(f"trace {tr} deviates from 1 by {abs(tr - 1.0):.3e}")
    wmin = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if wmin < eig_floor:
        raise InvalidDensityMatrix(f"smallest eigenvalue {wmin:.3e} < {eig_floor:.1e}")
    return rho
