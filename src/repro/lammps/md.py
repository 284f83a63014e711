"""Velocity-Verlet molecular dynamics on LJ systems.

The integrator keeps a Verlet-skin neighbour list: pairs are gathered once
within ``cutoff + skin`` and *reused* until some atom has moved more than
``skin / 2`` since the list was built — only then is the cell list rebuilt.
Because no atom pair can close from beyond ``cutoff + skin`` to within
``cutoff`` before that displacement bound trips, the reused list always
contains every interacting pair, so trajectories match the always-rebuild
path to numerical tolerance while rebuilds drop to a small fraction of
steps (counted by ``rebuild_count`` and the ``md.rebuild`` perf counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.lammps.neighbor import CellList
from repro.lammps.potential import LennardJones
from repro.perf.registry import REGISTRY as _perf


@dataclass
class Snapshot:
    """One output epoch's worth of simulation state."""

    step: int
    positions: np.ndarray
    velocities: np.ndarray
    potential_energy: float
    kinetic_energy: float

    @property
    def natoms(self) -> int:
        return len(self.positions)


class MDSystem:
    """Atom state: positions, velocities, masses, optional frozen atoms.

    ``frozen`` marks boundary atoms whose positions are prescribed
    externally (grip rows in the tensile test); the integrator zeroes their
    velocities and forces.
    """

    def __init__(
        self,
        positions: np.ndarray,
        velocities: Optional[np.ndarray] = None,
        mass: float = 1.0,
        frozen: Optional[np.ndarray] = None,
    ):
        self.positions = np.array(positions, dtype=np.float64)
        if self.positions.ndim != 2:
            raise ValueError("positions must be (n, dim)")
        n, dim = self.positions.shape
        if velocities is None:
            velocities = np.zeros((n, dim))
        self.velocities = np.array(velocities, dtype=np.float64)
        if self.velocities.shape != self.positions.shape:
            raise ValueError("velocities shape must match positions")
        if mass <= 0:
            raise ValueError("mass must be positive")
        self.mass = float(mass)
        self.frozen = (
            np.zeros(n, dtype=bool) if frozen is None else np.asarray(frozen, dtype=bool)
        )
        if self.frozen.shape != (n,):
            raise ValueError("frozen mask must have one entry per atom")

    @property
    def natoms(self) -> int:
        return len(self.positions)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def kinetic_energy(self) -> float:
        mobile = ~self.frozen
        return float(0.5 * self.mass * np.sum(self.velocities[mobile] ** 2))

    def thermalize(self, temperature: float, rng: np.random.Generator) -> None:
        """Draw Maxwell-Boltzmann velocities at ``temperature`` (kB = 1)."""
        if temperature < 0:
            raise ValueError("temperature must be non-negative")
        sigma = np.sqrt(temperature / self.mass)
        self.velocities = rng.normal(0.0, sigma, self.positions.shape)
        self.velocities[self.frozen] = 0.0
        # Remove centre-of-mass drift of the mobile atoms.
        mobile = ~self.frozen
        if mobile.any():
            self.velocities[mobile] -= self.velocities[mobile].mean(axis=0)


class VelocityVerlet:
    """The integrator, with cell-list forces and optional velocity rescaling.

    Parameters
    ----------
    dt:
        Timestep in reduced LJ time units (0.005 is the standard stable
        choice).
    rebuild_every:
        Steps between cell-list rebuilds in ``neighbor_mode='interval'``
        (the seed policy, kept for comparison runs).
    skin:
        Extra margin on the neighbour cutoff; pair lists built at
        ``cutoff + skin`` stay exact until some atom moves ``skin / 2``.
    neighbor_mode:
        ``'verlet'`` (default) rebuilds only when the max displacement
        since the last build exceeds ``skin / 2`` — exact and typically an
        order of magnitude fewer rebuilds; ``'interval'`` rebuilds every
        ``rebuild_every`` steps unconditionally.
    """

    def __init__(
        self,
        system: MDSystem,
        potential: Optional[LennardJones] = None,
        dt: float = 0.005,
        rebuild_every: int = 10,
        skin: float = 0.3,
        neighbor_mode: str = "verlet",
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if rebuild_every < 1:
            raise ValueError("rebuild_every must be >= 1")
        if neighbor_mode not in ("verlet", "interval"):
            raise ValueError(f"unknown neighbor_mode {neighbor_mode!r}")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.system = system
        self.potential = potential or LennardJones()
        self.dt = float(dt)
        self.rebuild_every = int(rebuild_every)
        self.skin = float(skin)
        self.neighbor_mode = neighbor_mode
        self.step_count = 0
        #: number of cell-list (re)builds, including the initial one
        self.rebuild_count = 0
        self._pairs: Optional[np.ndarray] = None
        self._built_positions: Optional[np.ndarray] = None
        self._energy, self._forces = self._compute_forces(rebuild=True)

    # -- forces -----------------------------------------------------------------

    def _needs_rebuild(self) -> bool:
        if self._pairs is None or self._built_positions is None:
            return True
        if self.neighbor_mode == "interval":
            return (self.step_count % self.rebuild_every) == 0
        displacement = self.system.positions - self._built_positions
        max_disp2 = np.einsum("ij,ij->i", displacement, displacement).max()
        return max_disp2 > (0.5 * self.skin) ** 2

    def _compute_forces(self, rebuild: bool):
        with _perf.timer("md.forces"):
            if rebuild or self._pairs is None:
                with _perf.timer("md.rebuild"):
                    cells = CellList(
                        self.system.positions, self.potential.cutoff + self.skin
                    )
                    self._pairs = cells.pairs()
                self._built_positions = self.system.positions.copy()
                self.rebuild_count += 1
                _perf.count("md.rebuild")
            energy, forces = self.potential.energy_forces(
                self.system.positions, self._pairs
            )
            forces[self.system.frozen] = 0.0
            return energy, forces

    @property
    def potential_energy(self) -> float:
        return self._energy

    # -- stepping ----------------------------------------------------------------

    def step(self, nsteps: int = 1, rescale_to: Optional[float] = None) -> None:
        """Advance ``nsteps`` velocity-Verlet steps.

        ``rescale_to`` applies a crude velocity-rescale thermostat after each
        step (enough to bleed off the strain work in the tensile test).
        """
        sysm = self.system
        inv_m = 1.0 / sysm.mass
        for _ in range(nsteps):
            half_kick = 0.5 * self.dt * inv_m * self._forces
            sysm.velocities += half_kick
            sysm.velocities[sysm.frozen] = 0.0
            sysm.positions += self.dt * sysm.velocities
            self.step_count += 1
            _perf.count("md.step")
            self._energy, self._forces = self._compute_forces(self._needs_rebuild())
            sysm.velocities += 0.5 * self.dt * inv_m * self._forces
            sysm.velocities[sysm.frozen] = 0.0
            if rescale_to is not None and rescale_to >= 0:
                self._rescale(rescale_to)

    def _rescale(self, temperature: float) -> None:
        sysm = self.system
        mobile = ~sysm.frozen
        n_dof = mobile.sum() * sysm.dim
        if n_dof == 0:
            return
        ke = 0.5 * sysm.mass * np.sum(sysm.velocities[mobile] ** 2)
        target = 0.5 * n_dof * temperature
        if ke > 1e-12:
            sysm.velocities[mobile] *= np.sqrt(max(target, 1e-12) / ke)

    def snapshot(self) -> Snapshot:
        return Snapshot(
            step=self.step_count,
            positions=self.system.positions.copy(),
            velocities=self.system.velocities.copy(),
            potential_energy=self._energy,
            kinetic_energy=self.system.kinetic_energy(),
        )
