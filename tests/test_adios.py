"""Unit tests for the ADIOS layer: variables, groups, BP files, the disk path."""

import numpy as np
import pytest

from repro.simkernel import Environment
from repro.data import DataChunk
from repro.adios import (
    Group,
    ParallelFileSystem,
    VarInfo,
    read_bp,
    write_bp,
)
from repro.adios.filesystem import METADATA_LATENCY, STREAM_BANDWIDTH, STRIPES
from repro.adios.group import lammps_atoms_group
from repro.adios.variable import AttributeSet


class TestVarInfo:
    def test_nbytes_fixed_dims(self):
        v = VarInfo("x", "float64", (10, 3))
        assert v.nbytes() == 240

    def test_nbytes_symbolic_dims(self):
        v = VarInfo("pos", "float32", ("natoms", 3))
        assert v.nbytes({"natoms": 100}) == 1200

    def test_unbound_symbol_raises(self):
        v = VarInfo("pos", "float64", ("natoms",))
        with pytest.raises(KeyError):
            v.nbytes()

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError):
            VarInfo("x", "complex256")

    def test_matches_array(self):
        v = VarInfo("pos", "float64", ("natoms", 2))
        good = np.zeros((5, 2))
        assert v.matches(good, {"natoms": 5})
        assert not v.matches(good, {"natoms": 6})
        assert not v.matches(np.zeros((5, 3)), {"natoms": 5})
        assert not v.matches(good.astype(np.float32), {"natoms": 5})


class TestGroup:
    def test_declare_and_size(self):
        g = Group("atoms", [VarInfo("id", "uint32", ("n",)), VarInfo("x", "float64", ("n",))])
        assert g.nbytes({"n": 10}) == 40 + 80
        assert "id" in g
        assert len(g) == 2

    def test_duplicate_var_rejected(self):
        g = Group("g", [VarInfo("a", "int32")])
        with pytest.raises(ValueError):
            g.declare(VarInfo("a", "int64"))

    def test_lammps_group_matches_table2_ratio(self):
        """Table II implies 8 bytes/atom of streamed output."""
        g = lammps_atoms_group()
        assert g.nbytes({"natoms": 1000}) == 8000


class TestAttributeSet:
    def test_set_get(self):
        attrs = AttributeSet({"a": 1})
        attrs.set("b", "two")
        assert attrs.get("a") == 1
        assert "b" in attrs
        assert attrs.as_dict() == {"a": 1, "b": "two"}

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            AttributeSet().set("", 1)


class TestBPFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.bp"
        variables = {
            "positions": np.random.default_rng(0).random((50, 2)),
            "ids": np.arange(50, dtype=np.uint32),
        }
        attrs = {"provenance": ["helper", "bonds"], "timestep": 3}
        nbytes = write_bp(path, variables, attrs)
        assert nbytes == path.stat().st_size
        got_vars, got_attrs = read_bp(path)
        assert got_attrs == attrs
        np.testing.assert_array_equal(got_vars["positions"], variables["positions"])
        np.testing.assert_array_equal(got_vars["ids"], variables["ids"])

    def test_numpy_scalars_in_attributes(self, tmp_path):
        path = tmp_path / "out.bp"
        write_bp(path, {"x": np.zeros(3)}, {"count": np.int64(5), "f": np.float32(1.5)})
        _, attrs = read_bp(path)
        assert attrs["count"] == 5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bp"
        path.write_bytes(b"NOTBP---" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_bp(path)

    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_bp(tmp_path / "o.bp", {"bad": np.array([object()])})

    def test_empty_arrays_roundtrip(self, tmp_path):
        path = tmp_path / "e.bp"
        write_bp(path, {"empty": np.zeros((0, 3))}, {})
        got, _ = read_bp(path)
        assert got["empty"].shape == (0, 3)


class TestParallelFileSystem:
    def test_write_records_file(self, env, machine):
        fs = ParallelFileSystem(env)
        done = []

        def proc(env):
            record = yield fs.write(machine.nodes[0], "a.bp", 1e6, {"p": 1})
            done.append(record)

        env.process(proc(env))
        env.run()
        assert done[0].name == "a.bp"
        assert fs.find("a.bp")[0].attributes == {"p": 1}
        assert fs.bytes_written == 1e6

    def test_striping_limits_concurrency(self, env, machine):
        fs = ParallelFileSystem(env)
        times = []

        def proc(env, name):
            # one second on one stream
            yield fs.write(machine.nodes[0], name, STREAM_BANDWIDTH, {})
            times.append(env.now)

        for i in range(STRIPES + 1):
            env.process(proc(env, f"f{i}"))
        env.run()
        # one write per stripe runs at once; the extra one waits for a stripe
        assert times[:STRIPES] == [pytest.approx(1.0 + METADATA_LATENCY)] * STRIPES
        assert times[STRIPES] == pytest.approx(2.0 + METADATA_LATENCY)


class TestWriteChunk:
    """The paper's POSIX method: one timestep to disk, provenance attached."""

    def test_write_chunk_attaches_provenance(self, env, machine):
        fs = ParallelFileSystem(env)
        c = DataChunk(timestep=7, nbytes=500, provenance=("helper", "bonds", "csym"),
                      chunk_id=next(env.chunk_ids))

        def proc(env):
            yield fs.write_chunk(machine.nodes[0], "csym", c, incomplete_pipeline=True)

        env.process(proc(env))
        env.run()
        record = fs.files[0]
        assert record.name == "csym.ts000007.bp"
        assert record.nbytes == 500
        assert record.attributes == {
            "provenance": ["helper", "bonds", "csym"],
            "timestep": 7,
            "incomplete_pipeline": True,
        }
        assert list(record.attributes) == ["provenance", "timestep", "incomplete_pipeline"]

