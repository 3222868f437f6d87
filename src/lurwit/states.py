"""Two-qubit polarization states.

Conventions used throughout the package:
  * basis order |HH>, |HV>, |VH>, |VV> with |H> = (1, 0), |V> = (0, 1);
  * measurement bases map to Paulis as 0/90 -> sigma_z, 45/135 -> sigma_x,
    R/L -> sigma_y (so H/V is the computational basis).

All constructors return immutable values. The exceptions are the stack
constructors `noise_mixtures` and `haar_rotated_bell_states`, which
return validated (n, 4, 4) arrays for the stacked witness kernel. The
latter returns its (n, 4) amplitude stack with them: its states are pure,
so their PPT eigenvalue is the Schmidt determinant of the amplitudes
(`witness.pure_ppt_min_eigenvalues`), with no eigensolve. It draws its own
task-keyed streams, re-keying one Philox generator per
sample (`lurwit.rng.keyed_draws`, which relies on numpy's Philox state
layout) rather than building a Generator for each, and writes every
sample's normals into one preallocated array. That stack is the
package's only local-rotation code: the three rotations behind
"u1/u2/u3-singlet" are constants (`_SPECIAL_UNITARIES`, on the first
party), each applied once per process.

A stack is certified PSD by one batched Cholesky factorization of
rho + PSD_TOL*I, which exists iff every eigenvalue is above -PSD_TOL;
`eigvalsh` runs only when that fails, to name the first failing row.
All of a stack's deviations meet their tolerances in one block and one
reduction; only a failed block runs the checks in order, to name the first
failure. One `DensityMatrix` is checked the same way, as a stack of one.

The parameter-free states of `parse_state_spec` (the Bell states, "singlet"
and the rotated singlets "u1/u2/u3-singlet") are built and validated once
per process, on first use, and the same read-only object is returned after
that; `noise_mixture` and `noise_mixtures` read their Bell projector from
the same kept states. Nothing is built at import.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .linalg import HERMITIAN_TOL, NumericsError, as_operator, first_failure

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (I2, SX, SY, SZ):
    _m.flags.writeable = False  # shared: `Basis` and the standard witness sets hold them

TRACE_TOL = 1e-10
PSD_TOL = 1e-9
NORM_TOL = 1e-12
UNITARY_TOL = 1e-10


class Basis(enum.Enum):
    """Polarization measurement basis: its label (the value) and its Pauli operator.

    The one table of the measurement scheme: the standard witness sets and
    the outcome projectors are built from it.
    """

    LIN_0_90 = ("0/90", SZ)
    LIN_45_135 = ("45/135", SX)
    CIRC_R_L = ("R/L", SY)

    def __new__(cls, label: str, pauli: np.ndarray):
        member = object.__new__(cls)
        member._value_ = label
        member.pauli = pauli
        return member


BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")

_BELL_AMPLITUDES = {
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
}


def bell_state(kind: str) -> np.ndarray:
    """Amplitudes of a Bell state; `kind` is one of psi+/psi-/phi+/phi- ("singlet" = psi-)."""
    key = "psi-" if kind == "singlet" else kind
    if key not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {BELL_KINDS}")
    return _BELL_AMPLITUDES[key].copy()


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A two-qubit state, checked Hermitian, unit-trace and PSD; `matrix` is a read-only copy."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(np.array(self.matrix, dtype=complex), dim=4)
        m.flags.writeable = False
        _check_stack(_density_checks(m[None]), lambda k: "the given matrix", ValueError)
        object.__setattr__(self, "matrix", m)


def density_from_pure(psi) -> DensityMatrix:
    """Projector |psi><psi| for a normalized 4-component amplitude vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {v.shape}")
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
    return DensityMatrix(np.outer(v, v.conj()))


class NoiseKind(enum.Enum):
    WERNER = "werner"
    POLARIZED = "polarized"


# The polarized noise term is a single fully polarized product state
# |H,V><H,V|; under it L3(p) = 4 - 4p, so the witness threshold sits at p = 0.
_HV = np.array([0, 1, 0, 0], dtype=complex)

_NOISE_STATES = {
    NoiseKind.WERNER: np.eye(4, dtype=complex) / 4.0,
    NoiseKind.POLARIZED: np.outer(_HV, _HV.conj()),
}


_PSD_SHIFT = PSD_TOL * np.eye(4)


def _negative_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """-lambda_min of each row of an (n, 4, 4) Hermitian stack, or 0 for every row
    when one Cholesky factorization of rho + PSD_TOL*I certifies lambda_min >= -PSD_TOL."""
    try:
        np.linalg.cholesky(rho + _PSD_SHIFT)
    except np.linalg.LinAlgError:  # some row is past the tolerance, or on it
        return -np.linalg.eigvalsh(rho)[:, 0]
    return np.zeros(len(rho))


def _density_checks(rho: np.ndarray) -> list:
    """The `DensityMatrix` checks on an (n, 4, 4) stack: (what, deviation per row, tol)."""
    return [
        ("density matrix is not Hermitian",
         np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(1, 2)), HERMITIAN_TOL),
        ("density matrix trace is not 1", np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0),
         TRACE_TOL),
        ("density matrix has a negative eigenvalue", _negative_eigenvalue(rho), PSD_TOL),
    ]


def _check_stack(checks, name, error=NumericsError) -> None:
    """Raise `error` at the first row past its tolerance (ValueError for a caller's own matrix,
    NumericsError for a generated stack); `name(k)` names row k. Every check passes or fails
    as one (checks, n) block with one reduction; the ordered loop runs only on a failure."""
    _, deviations, tols = zip(*checks)
    if (np.array(deviations) <= np.array(tols)[:, None]).all():
        return
    for what, deviation, tol in checks:
        failed = first_failure(deviation <= tol)
        if failed is not None:
            (k,) = failed
            raise error(f"{what} for {name(k)}: deviation {deviation[k]} > {tol}")


def _check_weights(ps: np.ndarray) -> None:
    """Raise the `ValueError` naming the first mixing weight outside [0, 1] (NaN is outside)."""
    failed = first_failure((0.0 <= ps) & (ps <= 1.0))
    if failed is not None:
        raise ValueError(f"mixing weight p={ps[failed]} outside [0, 1]")


@functools.cache
def _bell_density(kind: str) -> DensityMatrix:
    """`density_from_pure(bell_state(kind))`, built and validated on the first call for `kind`.

    The states are read-only, so one per kind serves every caller; a kind
    that `bell_state` rejects raises on every call and is not kept.
    """
    return density_from_pure(bell_state(kind))


def noise_mixture(p: float, kind: NoiseKind, base: str = "psi-") -> DensityMatrix:
    """Convex mixture p * |Bell><Bell| + (1 - p) * noise, 0 <= p <= 1."""
    _check_weights(np.asarray(p))
    proj = _bell_density(base).matrix
    return DensityMatrix(p * proj + (1.0 - p) * _NOISE_STATES[kind])


def noise_mixtures(ps, kind: NoiseKind, base: str = "psi-") -> np.ndarray:
    """Validated (n, 4, 4) stack of noise mixtures; row k is `noise_mixture(ps[k], kind, base)`.

    Each row is bit for bit that state's matrix: the same expression,
    broadcast over p. The inputs fail as a loop of `noise_mixture` calls
    would: the first p, then the base, then the first bad p of the rest
    (NaN included), each with the scalar's `ValueError`. The stack then
    passes the `DensityMatrix` checks as maxima with the same tolerances.
    The inputs were valid, so a failed check is a NumericsError.
    """
    ps = np.asarray(ps, dtype=float).reshape(-1)
    _check_weights(ps[:1])
    proj = _bell_density(base).matrix
    _check_weights(ps)
    p = ps[:, None, None]
    rho = p * proj + (1.0 - p) * _NOISE_STATES[kind]
    _check_stack(_density_checks(rho), lambda k: f"p={float(ps[k])}")
    return rho


# the rotations of the first party behind "u1/u2/u3-singlet" (the second party's is the identity)
_SPECIAL_UNITARIES = {
    "u1": 0.5 * np.array([[1 + 1j, -1 + 1j], [1 + 1j, 1 - 1j]]),
    "u2": 0.5 * np.array([[1 - 1j * np.sqrt(3), 0], [0, 1 + 1j * np.sqrt(3)]]),
    "u3": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _su2_from_quaternion(q: np.ndarray) -> np.ndarray:
    # unit quaternions (..., 4) = (w, x, y, z) -> w*I + i*(x*SX + y*SY + z*SZ)
    # = [[w+iz, y+ix], [-y+ix, w-iz]], SU(2) elements of shape (..., 2, 2); the
    # real parts are (w, y, y, w) and the imaginary parts (z, x, x, z), each
    # gathered once and signed by an exact ±1 (the Pauli sum's values; only a
    # component that is exactly 0 can give a zero entry another sign)
    u = np.empty(q.shape[:-1] + (4,), dtype=complex)
    np.multiply(q[..., [0, 2, 2, 0]], (1.0, 1.0, -1.0, 1.0), out=u.real)
    np.multiply(q[..., [3, 1, 1, 3]], (1.0, 1.0, 1.0, -1.0), out=u.imag)
    return u.reshape(q.shape[:-1] + (2, 2))


def _haar_su2(g: np.ndarray) -> np.ndarray:
    # normalized Gaussian 4-vectors are Haar-uniform unit quaternions (norms as np.linalg.norm sums them)
    return _su2_from_quaternion(g / np.sqrt(np.add.reduce(g * g, -1, keepdims=True)))


def haar_rotated_bell_states(kind: str, seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Validated (n, 4) amplitudes and (n, 4, 4) density matrices of a Bell state under
    Haar-random local rotations, as the pair (psi, rho).

    `indices` is a range (or sequence) of sample indices, and row k is
    sample indices[k]: one `standard_normal((2, 4))` draw from
    `rng.stream(seed, i)`, normalized to a Haar-uniform SU(2) rotation per
    party, applied to the Bell state: psi[k] its amplitudes and rho[k] its
    density matrix |psi[k]><psi[k]|. The draws come
    from `rng.keyed_draws`, which re-keys one Philox generator per sample
    (through numpy's Philox state layout), gives the same bits as a new
    stream for each, and writes them straight into row k of one (n, 2, 4)
    array. Its checks are its own: every rotation unitary (UNITARY_TOL),
    every rotated state normalized (NORM_TOL, as in `density_from_pure`)
    and every density matrix through the `DensityMatrix` checks, as maxima
    over the stack. The states are generated here, so a failed check is a
    NumericsError.
    """
    psi0 = bell_state(kind)
    normals = np.empty((len(indices), 2, 4))
    rows = iter(normals)
    _rng.keyed_draws(seed, indices, lambda g: g.standard_normal(out=next(rows)))
    u = _haar_su2(normals)  # (n, party, 2, 2)
    # u^dagger u as one broadcast product and sum over the row index
    gram = (u.conj()[..., :, :, None] * u[..., :, None, :]).sum(axis=-3)
    checks = [("local rotation is not unitary", np.abs(gram - I2).max(axis=(1, 2, 3)), UNITARY_TOL)]
    # u_a x u_b as np.kron forms it (one broadcast product per entry), then a
    # matrix-vector product: the same arithmetic as `np.kron(u_a, u_b) @ psi`
    joint = (u[:, 0, :, None, :, None] * u[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    psi = joint @ psi0
    checks.append(("rotated state is not normalized",
                   np.abs(np.sum(np.abs(psi) ** 2, axis=1) - 1.0), NORM_TOL))
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    _check_stack(checks + _density_checks(rho), lambda k: f"sample {indices[k]} (seed {seed})")
    return psi, rho


def density_from_json(obj) -> DensityMatrix:
    """Build a state from {"dim": 4, "re": [[...]x4], "im": [[...]x4]}."""
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"density JSON must carry dim/re/im fields: {exc}") from exc
    except OverflowError as exc:  # a JSON integer past the float range
        raise ValueError("matrix entries must be finite (no NaN/Inf)") from exc
    if dim != 4 or re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError("density JSON must describe a 4x4 matrix")
    entries = (v for part in (obj["re"], obj["im"]) for row in part for v in row)
    if any(isinstance(v, (str, bool, np.bool_)) for v in entries):  # which numpy converts, as "0.25" to 0.25
        raise ValueError("matrix entries must be numbers, not strings or booleans")
    # checked before combining: 1j * inf is inf*0 in its real part, which warns
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return DensityMatrix(re + 1j * im)


def load_density_file(path: str) -> DensityMatrix:
    """`density_from_json` of the JSON file at `path`; `json` is imported here, on the first file read."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return density_from_json(json.load(fh))
    # JSONDecodeError is a ValueError; arrays nested past the recursion limit raise RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"density file {path!r}: {exc}") from exc


@functools.cache
def _rotated_singlet(which: str) -> DensityMatrix:
    """The singlet under `_SPECIAL_UNITARIES[which]` (x) I, built and validated on the first call."""
    u = np.kron(_SPECIAL_UNITARIES[which], I2)
    try:
        return DensityMatrix(u @ _bell_density("psi-").matrix @ u.conj().T)
    except ValueError as exc:  # the rotations are constants, so this is a numeric bug
        raise NumericsError(f"local unitary broke a state invariant: {exc}") from exc


def parse_state_spec(spec: str) -> DensityMatrix:
    """Parse a CLI state spec into a density matrix.

    Accepted forms: "singlet", "psi+", "psi-", "phi+", "phi-",
    "werner:p=<float>", "polarized:p=<float>", "u1-singlet", "u2-singlet",
    "u3-singlet", "file:<path>". The parameter-free states are built and
    validated once per process, on first use, and then shared (they are
    read-only).
    """
    s = spec.strip()
    if s == "singlet" or s in BELL_KINDS:
        return _bell_density(s)
    if s in ("u1-singlet", "u2-singlet", "u3-singlet"):
        return _rotated_singlet(s.split("-")[0])
    if s.startswith("werner:") or s.startswith("polarized:"):
        family, _, arg = s.partition(":")
        if not arg.startswith("p="):
            raise ValueError(f"expected {family}:p=<float>, got {spec!r}")
        try:
            p = float(arg[2:])
        except ValueError as exc:
            raise ValueError(f"bad mixing weight in {spec!r}") from exc
        return noise_mixture(p, NoiseKind(family))
    if s.startswith("file:"):
        return load_density_file(s[5:])
    raise ValueError(f"unrecognized state spec {spec!r}")
