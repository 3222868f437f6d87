"""Two-qubit polarization states and local unitaries.

Conventions used throughout the package:
  * basis order |HH>, |HV>, |VH>, |VV> with |H> = (1, 0), |V> = (0, 1);
  * measurement bases map to Paulis as 0/90 -> sigma_z, 45/135 -> sigma_x,
    R/L -> sigma_y (so H/V is the computational basis).

All constructors return immutable values. The exceptions are the stack
constructors `noise_mixtures` and `haar_rotated_bell_states`, which
return validated (n, 4, 4) arrays for the stacked witness kernel; the
latter draws its own task-keyed streams, re-keying one Philox generator per
sample (`lurwit.rng.keyed_draws`, which relies on numpy's Philox state
layout) rather than building a Generator for each, and writes every
sample's normals into one preallocated array. Haar-random local rotations
exist only in that stack; no constructor returns one rotation.

A stack is certified PSD by one batched Cholesky factorization of
rho + PSD_TOL*I, which exists iff every eigenvalue is above -PSD_TOL;
`eigvalsh` runs only when that fails, to name the first failing row.
One `DensityMatrix` is checked the same way, as a stack of one.

The parameter-free states of `parse_state_spec` (the Bell states, "singlet"
and the rotated singlets "u1/u2/u3-singlet") are built and validated once
per process, on first use, and the same read-only object is returned after
that; `noise_mixture` and `noise_mixtures` read their Bell projector from
the same kept states. Nothing is built at import.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .linalg import HERMITIAN_TOL, NumericsError, as_operator, dagger, first_failure, tensor_product

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
    NumericsError for a generated stack); `name(k)` names row k."""
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


@dataclass(frozen=True, eq=False)
class LocalUnitaryPair:
    """One unitary per party, applied as u_a (x) u_b."""

    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self):
        for name, u in (("u_a", self.u_a), ("u_b", self.u_b)):
            m = as_operator(u, dim=2)
            if np.max(np.abs(dagger(m) @ m - I2)) > UNITARY_TOL:
                raise ValueError(f"{name} is not unitary within tolerance")
            object.__setattr__(self, name, m)

    def joint(self) -> np.ndarray:
        return tensor_product(self.u_a, self.u_b)


_SPECIAL_UNITARIES = {
    "u1": 0.5 * np.array([[1 + 1j, -1 + 1j], [1 + 1j, 1 - 1j]]),
    "u2": 0.5 * np.array([[1 - 1j * np.sqrt(3), 0], [0, 1 + 1j * np.sqrt(3)]]),
    "u3": np.array([[1, 0], [0, -1]], dtype=complex),
}


def special_unitary(which: str) -> LocalUnitaryPair:
    """Reference single-party rotations u1/u2/u3 (second party gets the identity)."""
    key = which.lower()
    if key not in _SPECIAL_UNITARIES:
        raise ValueError(f"unknown special unitary {which!r}; expected u1, u2 or u3")
    return LocalUnitaryPair(_SPECIAL_UNITARIES[key].copy(), I2.copy())


def apply_local_unitary(pair: LocalUnitaryPair, rho: DensityMatrix) -> DensityMatrix:
    u = pair.joint()
    try:
        return DensityMatrix(u @ rho.matrix @ dagger(u))
    except ValueError as exc:  # inputs were valid, so this is a numeric bug
        raise NumericsError(f"local unitary broke a state invariant: {exc}") from exc


def _su2_from_quaternion(q: np.ndarray) -> np.ndarray:
    # unit quaternions (..., 4) = (w, x, y, z) -> w*I + i*(x*SX + y*SY + z*SZ)
    # = [[w+iz, y+ix], [-y+ix, w-iz]], SU(2) elements of shape (..., 2, 2),
    # written entry by entry (the Pauli sum's values; only a component that is
    # exactly 0 can give a zero entry another sign)
    w, x, y, z = np.moveaxis(q, -1, 0)
    u = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = re[..., 1, 1] = w
    im[..., 0, 0] = z
    np.negative(z, out=im[..., 1, 1])
    re[..., 0, 1] = y
    np.negative(y, out=re[..., 1, 0])
    im[..., 0, 1] = im[..., 1, 0] = x
    return u


def _haar_su2(gaussians: np.ndarray) -> np.ndarray:
    # normalized Gaussian 4-vectors are Haar-uniform unit quaternions
    return _su2_from_quaternion(gaussians / np.linalg.norm(gaussians, axis=-1, keepdims=True))


def haar_rotated_bell_states(kind: str, seed: int, indices) -> np.ndarray:
    """Validated (n, 4, 4) stack of a Bell state under Haar-random local rotations.

    `indices` is a range (or sequence) of sample indices, and row k is
    sample indices[k]: one `standard_normal((2, 4))` draw from
    `rng.stream(seed, i)`, normalized to a Haar-uniform SU(2) rotation per
    party, applied to the Bell state, as a density matrix. The draws come
    from `rng.keyed_draws`, which re-keys one Philox generator per sample
    (through numpy's Philox state layout), gives the same bits as a new
    stream for each, and writes them straight into row k of one (n, 2, 4)
    array. The stack passes the checks a state built one object at a time
    would (`LocalUnitaryPair`, `density_from_pure`, `DensityMatrix`), as
    maxima over the stack with the same tolerances. The states are
    generated here, so a failed check is a NumericsError.
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
    # matrix-vector product: the same arithmetic as `LocalUnitaryPair.joint() @ psi`
    joint = (u[:, 0, :, None, :, None] * u[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    psi = joint @ psi0
    checks.append(("rotated state is not normalized",
                   np.abs(np.sum(np.abs(psi) ** 2, axis=1) - 1.0), NORM_TOL))
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    _check_stack(checks + _density_checks(rho), lambda k: f"sample {indices[k]} (seed {seed})")
    return rho


def density_from_json(obj) -> DensityMatrix:
    """Build a state from {"dim": 4, "re": [[...]x4], "im": [[...]x4]}."""
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"density JSON must carry dim/re/im fields: {exc}") from exc
    if dim != 4 or re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError("density JSON must describe a 4x4 matrix")
    # checked before combining: 1j * inf is inf*0 in its real part, which warns
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return DensityMatrix(re + 1j * im)


def load_density_file(path: str) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return density_from_json(json.load(fh))
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"density file {path!r}: {exc}") from exc


@functools.cache
def _rotated_singlet(which: str) -> DensityMatrix:
    """The singlet under `special_unitary(which)`, built and validated on the first call."""
    return apply_local_unitary(special_unitary(which), _bell_density("psi-"))


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
