"""Example systems: spin dimer, gapped toy spectra, symmetric states, graphs.

Conventions used throughout: qubit site 0 is the most significant bit of a
basis index, k_B-free energies (temperatures carry the unit choice), and
explicit matrices are only built for n <= MATRIX_SITE_CAP sites.
"""
from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ThermwitError
from .numerics import DIM_CAP

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

MATRIX_SITE_CAP = DIM_CAP.bit_length() - 1  # the largest n with 2^n <= DIM_CAP
DICKE_SITE_CAP = 20
SPECTRUM_LEVEL_CAP = 10**6
MERGE_TOL_SCALE = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Finite energy levels with integer degeneracies, strictly ascending.

    ``energies`` is a read-only float64 array, one entry per level.
    ``degeneracies`` stays a tuple of exact Python ints, so binomial level
    counts stay exact; the kernel's log of each is ``math.log`` of that int
    (not np.log, which may differ in the last ulp), taken once per level.
    Array fields have no hash or tuple equality, so a Spectrum compares and
    hashes by identity: compare its fields instead.
    """

    energies: np.ndarray
    degeneracies: tuple[int, ...]
    # the thermal kernel's levels: E_j - E_0, log g (one float when all are
    # equal), log g_max - min(log g_0, log g_1) and log g_max - log g_min
    _levels: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        energy = np.array(self.energies, dtype=float)
        degeneracies = tuple(self.degeneracies)
        if energy.ndim != 1 or energy.size != len(degeneracies) or not degeneracies:
            raise ThermwitError("energies and degeneracies must be equal-length and nonempty")
        if min(degeneracies) < 1:
            raise ThermwitError("degeneracies must be positive integers")
        if not np.all(np.isfinite(energy)):
            raise ThermwitError("energies must be finite")
        if not np.all(energy[1:] > energy[:-1]):
            raise ThermwitError("energies must be strictly ascending")
        # in Python floats, which overflow to inf without a warning
        if math.isinf(float(energy[-1]) - float(energy[0])):
            raise ThermwitError("energies span more than a float holds")
        excitations = energy - energy[0]
        if degeneracies.count(degeneracies[0]) == len(degeneracies):
            levels = (excitations, math.log(int(degeneracies[0])), 0.0, 0.0)
        else:
            # one log per level: hashing ~1,500-digit binomials into a set or
            # dict to share logs costs more than the logs themselves
            logs = list(map(math.log, map(int, degeneracies)))
            log_deg = np.array(logs)
            log_deg.setflags(write=False)
            top = max(logs)
            levels = (excitations, log_deg, top - min(logs[0], logs[1]), top - min(logs))
        for a in (energy, excitations):
            a.setflags(write=False)
        object.__setattr__(self, "energies", energy)
        object.__setattr__(self, "degeneracies", degeneracies)
        object.__setattr__(self, "_levels", levels)

    @classmethod
    def from_values(cls, values: np.ndarray | Sequence[float]) -> "Spectrum":
        """Sort raw eigenvalues and merge near-coincident ones into levels.

        One tolerance, ``MERGE_TOL_SCALE * max |E|``, serves the whole spectrum
        (an eigensolver's error scales with ||H||), so no level depends on the
        energy unit. A level starts where a gap exceeds it, at its values' mean.
        """
        ordered = np.sort(np.asarray(values, dtype=float))
        tol = MERGE_TOL_SCALE * np.max(np.abs(ordered), initial=0.0)
        if tol == math.inf:
            raise ThermwitError("energies must be finite")
        # a NaN makes tol NaN: each value starts a level, and NaN fails the finite
        # check; a gap that overflows starts one, and the span check then fails
        with np.errstate(over="ignore"):
            starts = np.flatnonzero(~(np.diff(ordered, prepend=-math.inf) <= tol))
        counts = np.diff(starts, append=ordered.size)
        return cls(np.add.reduceat(ordered, starts) / counts, tuple(counts.tolist()))

    @property
    def dimension(self) -> int:
        return sum(int(g) for g in self.degeneracies)

    @property
    def n_levels(self) -> int:
        return len(self.degeneracies)

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def gap(self) -> float:
        """First excitation energy above the ground level."""
        if self.n_levels < 2:
            raise ThermwitError("gap undefined for a single-level spectrum")
        return float(self.energies[1]) - float(self.energies[0])

    @property
    def spread(self) -> float:
        return float(self.energies[-1]) - float(self.energies[0])


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector on ``n_sites`` qubits, site 0 = most significant bit."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**self.n_sites:
            raise ThermwitError(
                f"amplitude vector length {amps.shape[0]} != 2^{self.n_sites}"
            )
        # einsum's own loop, not the threaded BLAS nrm2 of np.linalg.norm:
        # on 2^20 amplitudes it is several times faster and steadier
        parts = amps.view(float)
        norm = math.sqrt(float(np.einsum("i,i->", parts, parts)))
        if abs(norm - 1.0) > 1e-12:
            raise ThermwitError(f"state norm {norm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_sites)


@dataclass(frozen=True)
class DimerParams:
    """Two-site exchange coupling J > 0 and field strength B >= 0."""

    B: float
    J: float

    def __post_init__(self) -> None:
        if self.B < 0:
            raise ThermwitError(f"field B must be >= 0, got {self.B}")
        if self.J < 0:
            raise ThermwitError(f"coupling J must be >= 0, got {self.J}")
        # the levels J - B, -3J, J, J + B span (J + B) - min(-3J, J - B)
        if math.isinf(self.J + self.B - min(-3.0 * self.J, self.J - self.B)):
            raise ThermwitError(
                f"dimer levels at J = {self.J!r}, B = {self.B!r} span more than a float holds"
            )


@dataclass(frozen=True)
class ToySpectrumParams:
    """Ground level e0 plus D-1 excited levels at e0 + m**alpha * delta."""

    e0: float
    delta: float
    alpha: float
    n_levels: int

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ThermwitError(f"delta must be positive, got {self.delta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ThermwitError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.n_levels < 2:
            raise ThermwitError(f"need at least 2 levels, got {self.n_levels}")
        if self.n_levels > SPECTRUM_LEVEL_CAP:
            raise ThermwitError(f"level count {self.n_levels} exceeds cap {SPECTRUM_LEVEL_CAP}")
        if not math.isfinite(self.spread):
            raise ThermwitError(
                f"top level delta * (D-1)^alpha = {self.delta!r} * {self.n_levels - 1}"
                f"^{self.alpha!r} overflows a float; lower delta"
            )

    @property
    def spread(self) -> float:
        """Top excited level above the ground, delta * (D-1)**alpha."""
        return self.delta * float(self.n_levels - 1) ** self.alpha


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, edges stored as u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ThermwitError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ThermwitError(f"edge ({u}, {v}) invalid for {self.n} vertices")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        norm = set()
        for pair in pairs:
            u, v = int(pair[0]), int(pair[1])
            if u == v:
                raise ThermwitError(f"self-loop at vertex {u}")
            norm.add((min(u, v), max(u, v)))
        return cls(n=int(n), edges=frozenset(norm))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def ring(cls, n: int) -> "Graph":
        if n < 3:
            raise ThermwitError("ring needs n >= 3")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(0, i) for i in range(1, n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = []
        for u, v in self.edges:
            if u == i:
                out.append(v)
            elif v == i:
                out.append(u)
        return tuple(sorted(out))


_EXCHANGE = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
_ZEEMAN = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)


def build_dimer_hamiltonian(p: DimerParams) -> np.ndarray:
    """4x4 exchange-plus-field Hamiltonian.

    H = J (XX + YY + ZZ) - (B/2) (Z otimes I + I otimes Z): the field couples
    to the total spin-z (spin operators are sigma/2), and lowers |00>. The
    four levels are J - B (|00>), -3J (singlet), J (triplet zero), J + B
    (|11>), so the singlet is the ground state exactly while B < 4J.
    """
    return p.J * _EXCHANGE - 0.5 * p.B * _ZEEMAN


def dimer_spectrum(p: DimerParams) -> Spectrum:
    """Analytic dimer levels {J - B, -3J, J, J + B}, merged where they collide."""
    return Spectrum.from_values([p.J - p.B, -3.0 * p.J, p.J, p.J + p.B])


def toy_spectrum(p: ToySpectrumParams) -> Spectrum:
    """Nondegenerate ground level plus a power-law ladder of excited levels.

    Level m (1 <= m <= D-1) sits at e0 + m**alpha * delta. At alpha = 0 the
    whole ladder collapses onto one (D-1)-fold degenerate level at e0 + delta.
    """
    m = np.arange(1, p.n_levels, dtype=float)
    excited = p.e0 + np.power(m, p.alpha) * p.delta
    return Spectrum.from_values(np.concatenate(([p.e0], excited)))


def dicke_state(n: int, k: int) -> PureState:
    """Equal-weight superposition of all n-qubit basis states of weight k."""
    if n < 1 or n > DICKE_SITE_CAP:
        raise ThermwitError(f"site count {n} outside 1..{DICKE_SITE_CAP}")
    if not 0 <= k <= n:
        raise ThermwitError(f"excitation count {k} outside 0..{n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[_hamming_weights(n) == k] = 1.0 / math.sqrt(math.comb(n, k))
    return PureState(n_sites=n, amplitudes=amps)


def _hamming_weights(n: int) -> np.ndarray:
    """The number of set bits of each basis index 0..2^n - 1, as uint8."""
    # By doubling: the upper half of each 2^(j+1) block is the lower half
    # plus one, so the table costs 2^n one-byte adds in total.
    weight = np.zeros(2**n, dtype=np.uint8)
    for j in range(n):
        half = 1 << j
        np.add(weight[:half], 1, out=weight[half : 2 * half])
    return weight


def odd_weight_mask(n: int) -> np.ndarray:
    """Boolean mask of the n-qubit basis indices with odd Hamming weight.

    A stabilizer Hamiltonian is odd under this parity: each generator
    K_i = X_i Z_N(i) flips exactly bit i, so -B * sum_i K_i maps even-weight
    states to odd ones and back, and anticommutes with Z^(tensor n). In the
    even/odd split its two diagonal blocks are zero, which is the shape
    ``numerics.chiral_eigenvalues`` solves at half size.
    """
    if n < 1 or n > MATRIX_SITE_CAP:
        raise ThermwitError(f"site count {n} outside 1..{MATRIX_SITE_CAP}")
    return (_hamming_weights(n) & 1).astype(bool)


def graph_state(g: Graph) -> PureState:
    """Apply CZ on every edge to the uniform superposition |+>^n."""
    if g.n > MATRIX_SITE_CAP:
        raise ThermwitError(f"graph on {g.n} vertices exceeds cap {MATRIX_SITE_CAP}")
    dim = 2**g.n
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for u, v in g.edges:
        bu = (idx >> (g.n - 1 - u)) & 1
        bv = (idx >> (g.n - 1 - v)) & 1
        amps[(bu & bv) == 1] *= -1.0
    return PureState(n_sites=g.n, amplitudes=amps)


def _stabilizer_action(g: Graph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """K_i as ``(rows, sign)``: K_i|b> = sign[b] |rows[b]> for every basis index b.

    X on vertex i flips its bit, so rows = b xor e_i; Z on each neighbour j
    contributes (-1)^(bit j of b). Vertex v is bit ``n - 1 - v`` of b.
    """
    if not 0 <= i < g.n:
        raise ThermwitError(f"vertex {i} outside 0..{g.n - 1}")
    idx = np.arange(2**g.n)
    parity = np.zeros(2**g.n, dtype=np.int64)
    for j in g.neighbors(i):
        parity ^= (idx >> (g.n - 1 - j)) & 1
    return idx ^ (1 << (g.n - 1 - i)), 1.0 - 2.0 * parity


def _zero_matrix(dim: int) -> np.ndarray:
    """A dim x dim float64 zero matrix on a private anonymous memory map.

    numpy asks the kernel for huge pages on large arrays, and faulting those
    in made the same 4096^2 build take anywhere from 0.03 s to 0.14 s from
    one call to the next (2-vCPU VM). A map is zero-filled and faults in
    small pages; where the kernel knows MADV_NOHUGEPAGE the map says so, so
    that a kernel backing every map with huge pages keeps them off this one.
    The map is copy-on-write (MAP_PRIVATE): the builder below only writes,
    so each page it reaches is faulted in once, and a later read of a page
    it never reached maps the kernel's shared zero page instead of
    allocating one. A ring(12) matrix builds in 0.025-0.035 s and, with
    every entry read, holds 64 MB, not 128 MB.
    """
    buf = mmap.mmap(-1, dim * dim * 8, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a kernel built without transparent huge pages rejects the advice
        with contextlib.suppress(OSError):
            buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(dim, dim)


def build_stabilizer_hamiltonian(g: Graph, B: float) -> np.ndarray:
    """H = -B * sum_i K_i; the graph state is its ground state at -nB.

    Returns a real float64 matrix of dimension 2^n, indexed like the state
    vectors (vertex 0 is the most significant bit of a basis index). Each
    generator fills one entry per column, ``H[b xor e_i, b] = -B * (-1)^(parity
    of b on the neighbours of i)``, so no Kronecker products are formed. No
    two generators share an entry (they flip different bits), so each entry
    is assigned once and never read: a page of the zero map is faulted in
    once, by its first write, and pages no generator reaches stay unmapped.
    """
    if g.n > MATRIX_SITE_CAP:
        raise ThermwitError(f"graph on {g.n} vertices exceeds cap {MATRIX_SITE_CAP}")
    if not B > 0:
        raise ThermwitError(f"field B must be positive, got {B}")
    dim = 2**g.n
    h = _zero_matrix(dim)
    cols = np.arange(dim)
    for i in range(g.n):
        rows, sign = _stabilizer_action(g, i)
        h[rows, cols] = -B * sign
    return h


def stabilizer_spectrum(n: int, B: float) -> Spectrum:
    """Levels B(-n + 2i), i flipped generators, with binomial degeneracy.

    Holds for every simple graph on n vertices: the n generators commute,
    square to the identity and are independent, so the 2^n joint eigenstates
    split by the number i of -1 syndromes with multiplicity C(n, i).
    """
    if n < 1 or n > 10**4:
        raise ThermwitError(f"site count {n} outside 1..10^4")
    if not B > 0:
        raise ThermwitError(f"field B must be positive, got {B}")
    degs = [1]
    for i in range(n // 2):  # C(n, i+1) = C(n, i) (n - i) / (i + 1), exact in integers
        degs.append(degs[-1] * (n - i) // (i + 1))
    degs += degs[: n + 1 - len(degs)][::-1]  # C(n, n - i) = C(n, i)
    return Spectrum(energies=B * np.arange(-n, n + 1, 2, dtype=float), degeneracies=tuple(degs))


def read_edge_list(path: str | Path) -> Graph:
    """Parse the plain edge-list format: first line n, then one 'u v' per line.

    Lines whose first non-blank character is '#' are comments; blank lines
    are skipped.
    """
    lines = Path(path).read_text().splitlines()
    rows: list[list[str]] = []
    for raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if not rows:
        raise ThermwitError(f"{path}: no content lines")
    if len(rows[0]) != 1:
        raise ThermwitError(f"{path}: first content line must be the vertex count")
    try:
        n = int(rows[0][0])
    except ValueError as exc:
        raise ThermwitError(f"{path}: bad vertex count {rows[0][0]!r}") from exc
    pairs = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ThermwitError(f"{path}: expected 'u v', got {' '.join(row)!r}")
        try:
            pairs.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise ThermwitError(f"{path}: bad edge line {' '.join(row)!r}") from exc
    return Graph.from_edges(n, pairs)


def write_edge_list(g: Graph, path: str | Path) -> None:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n")
