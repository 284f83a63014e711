"""Tests for the crack experiment, Table II workloads, and the DES driver."""

import numpy as np
import pytest

from repro.simkernel import Environment, Store
from repro.evpath import Messenger
from repro.cluster import Machine
from repro.datatap import DataTapLink, DataTapReader, DataTapWriter
from repro.lammps import (
    CrackExperiment,
    LammpsDriver,
    TABLE_II,
    WeakScalingWorkload,
    atoms_for_nodes,
    broken_bond_fraction,
)
from repro.lammps.crack import BOND_CUTOFF, reference_bonds
from repro.lammps.workload import BYTES_PER_ATOM, output_bytes_for_atoms


class TestCrackExperiment:
    def test_unstrained_plate_has_no_broken_bonds(self):
        exp = CrackExperiment(nx=24, ny=14, md_steps_per_epoch=20)
        frac = broken_bond_fraction(exp.system.positions, exp.reference)
        assert frac == 0.0

    def test_crack_forms_under_tension(self):
        exp = CrackExperiment(nx=30, ny=18, md_steps_per_epoch=40)
        cracked_epoch = None
        for i, frame in enumerate(exp.frames(max_epochs=40)):
            if frame.cracked:
                cracked_epoch = i
        assert cracked_epoch is not None
        # Physically plausible: a notched LJ plate fails at a few % strain,
        # far below the ~15%+ an un-notched lattice would need.
        assert 0.02 < exp.strain < 0.30

    def test_broken_fraction_monotone_ish(self):
        """Broken-bond fraction never decreases dramatically once cracked."""
        exp = CrackExperiment(nx=24, ny=16, md_steps_per_epoch=30)
        fracs = [frame.broken_fraction for frame in exp.run(16)]
        assert fracs[-1] >= fracs[0]

    def test_reference_bonds_reasonable(self):
        exp = CrackExperiment(nx=20, ny=12)
        n = exp.system.natoms
        bonds_per_atom = 2 * len(exp.reference) / n
        assert 4.0 < bonds_per_atom < 6.0  # interior 6, edges fewer

    def test_validation(self):
        with pytest.raises(ValueError):
            CrackExperiment(notch_fraction=1.5)
        with pytest.raises(ValueError):
            CrackExperiment(strain_per_epoch=0)


class TestTable2Workloads:
    def test_exact_table_rows(self):
        assert atoms_for_nodes(256) == 8_819_989
        assert atoms_for_nodes(512) == 17_639_979
        assert atoms_for_nodes(1024) == 35_279_958

    def test_table_sizes_in_bytes(self):
        for nodes, (atoms, nbytes) in TABLE_II.items():
            assert output_bytes_for_atoms(atoms) == pytest.approx(nbytes, rel=0.01)

    def test_bytes_per_atom_is_eight(self):
        assert BYTES_PER_ATOM == pytest.approx(8.0, rel=0.01)

    def test_interpolation_is_linear(self):
        a128 = atoms_for_nodes(128)
        assert a128 == pytest.approx(atoms_for_nodes(256) / 2, rel=0.01)
        # weak scaling: atoms per node constant across the sweep
        ratios = [atoms_for_nodes(n) / n for n in (128, 256, 512, 1024, 2048)]
        assert max(ratios) - min(ratios) < 1.0

    def test_workload_properties(self):
        wl = WeakScalingWorkload(sim_nodes=512, staging_nodes=24, spare_staging_nodes=4)
        assert wl.natoms == 17_639_979
        assert wl.bytes_per_step == pytest.approx(134.6 * 2**20, rel=0.01)

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            WeakScalingWorkload(sim_nodes=0, staging_nodes=1)
        with pytest.raises(ValueError):
            WeakScalingWorkload(sim_nodes=1, staging_nodes=4, spare_staging_nodes=5)
        with pytest.raises(ValueError):
            atoms_for_nodes(-1)


class TestLammpsDriver:
    def _setup(self, env, total_steps=5, crack_step=None):
        machine = Machine(env, num_nodes=8, memory_per_node=64 * 2**30)
        messenger = Messenger(env, machine.network)
        link = DataTapLink(env, messenger, "out")
        writers = [
            DataTapWriter(env, messenger, machine.nodes[i], name=f"w{i}")
            for i in range(2)
        ]
        for w in writers:
            link.add_writer(w)
        queue = Store(env, capacity=64)
        link.add_reader(DataTapReader(env, messenger, machine.nodes[4], "r0", queue))
        wl = WeakScalingWorkload(
            sim_nodes=256, staging_nodes=4, output_interval=15.0, total_steps=total_steps
        )
        driver = LammpsDriver(env, writers, wl, crack_step=crack_step)
        return driver, queue, wl

    def test_emits_on_cadence(self, env):
        driver, queue, wl = self._setup(env, total_steps=4)
        env.run(until=driver.finished)
        assert driver.steps_emitted == 4
        intervals = np.diff(driver.emit_times)
        assert np.all(intervals >= wl.output_interval - 1e-9)

    def test_chunk_sizes_match_table(self, env):
        driver, queue, wl = self._setup(env, total_steps=2)
        env.run(until=driver.finished)
        env.run(until=env.now + 30)
        chunks = queue.items
        assert len(chunks) == 4  # 2 steps x 2 writers
        total_step0 = sum(c.nbytes for c in chunks if c.timestep == 0)
        assert total_step0 == pytest.approx(wl.bytes_per_step)

    def test_crack_marker_from_step(self, env):
        driver, queue, wl = self._setup(env, total_steps=4, crack_step=2)
        env.run(until=driver.finished)
        env.run(until=env.now + 30)
        for chunk in queue.items:
            assert chunk.payload["crack"] == (chunk.timestep >= 2)

    def test_requires_writers(self, env):
        wl = WeakScalingWorkload(sim_nodes=256, staging_nodes=4)
        with pytest.raises(ValueError):
            LammpsDriver(env, [], wl)
