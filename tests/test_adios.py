"""Unit tests for the ADIOS layer: variables, groups, BP files, the disk path."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, Interrupt
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



@contextlib.contextmanager
def _disk_paths(oracle):
    """Put :mod:`tests.oracles.adios` back for the block (live: no-op)."""
    from unittest import mock

    from tests.oracles import adios as reference

    with contextlib.ExitStack() as stack:
        for cls, attr, fn in reference.PATCHES if oracle else ():
            stack.enter_context(mock.patch.object(cls, attr, fn, create=True))
        yield


def _through(oracle, scenario):
    """Run ``scenario(env, fs, store, node, log)`` on a fresh environment
    through the live disk path or the oracle's; return everything it left
    behind.  An error raised out of ``env.run`` is part of the outcome."""
    from repro.adios import SpillStore
    from repro.cluster import Machine

    with _disk_paths(oracle):
        env = Environment()
        node = Machine(env, num_nodes=2, cores_per_node=4).nodes[0]
        fs, store, log = ParallelFileSystem(env), SpillStore(env), []
        scenario(env, fs, store, node, log)
        try:
            env.run()
            raised = None
        except Exception as error:  # noqa: BLE001 - compared across paths
            raised = (type(error), str(error))
    return dict(
        log=log, raised=raised, now=env.now,
        files=fs.files, written=fs.bytes_written, read=fs.bytes_read,
        store_files=store.fs.files, store_written=store.fs.bytes_written,
        store_read=store.fs.bytes_read, segments=store.segments,
    )


def _same(scenario):
    live = _through(False, scenario)
    assert live == _through(True, scenario)
    return live


def _waiter(env, log, tag, event_fn, delay=0.0):
    """A process that waits ``delay``, then on ``event_fn()``; it logs the
    completion time and value, or the error it caught."""
    def proc():
        if delay:
            yield env.timeout(delay)
        try:
            value = yield event_fn()
        except Exception as error:  # noqa: BLE001 - compared across paths
            log.append((tag, env.now, type(error), str(error)))
        else:
            log.append((tag, env.now, value))
    return env.process(proc())


def _spill_record(nbytes, seq=0, timestep=0):
    from repro.fate import SpillRecord, segment_digest

    return SpillRecord(
        timestep=timestep, stage="bonds", reason="backpressure_stride", time=0.0,
        seq=seq, nbytes=nbytes,
        digest=segment_digest("bonds", timestep, "backpressure_stride", nbytes),
    )


class TestDiskDifferential:
    """Every write and read schedules one completion; the process per
    operation and the stream ``Resource`` it replaced are kept in
    :mod:`tests.oracles.adios`.  Both must give the same completion times,
    file records, byte counters, segments and errors, operation by
    operation and on whole presets."""

    def test_one_write(self):
        def scenario(env, fs, store, node, log):
            _waiter(env, log, "a", lambda: fs.write(node, "a.bp", 1e6, {"p": 1}))

        run = _same(scenario)
        assert run["log"] == [("a", 1e6 / STREAM_BANDWIDTH + METADATA_LATENCY,
                               run["files"][0])]
        assert run["written"] == 1e6

    def test_one_more_write_than_stripes(self):
        def scenario(env, fs, store, node, log):
            for i in range(STRIPES + 1):
                _waiter(env, log, i, lambda i=i: fs.write(node, f"f{i}", STREAM_BANDWIDTH))

        run = _same(scenario)
        first = METADATA_LATENCY + 1.0
        times = [t for _, t, _ in run["log"]]
        assert times == [first] * STRIPES + [first + 1.0]
        assert [f.written_at for f in run["files"]] == times

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, METADATA_LATENCY, 0.3, 1.0]) | st.floats(0.0, 3.0),
                  st.floats(0.0, 2.0 * STREAM_BANDWIDTH)),
        min_size=1, max_size=12))
    def test_mixed_writes(self, ops):
        """Same-instant and staggered arrivals, sizes from 0 to 2 s of
        stream time: identical completions, bit for bit."""
        def scenario(env, fs, store, node, log):
            for i, (delay, nbytes) in enumerate(ops):
                _waiter(env, log, i, lambda i=i, n=nbytes: fs.write(node, f"f{i}", n), delay)

        run = _same(scenario)
        assert len(run["files"]) == len(ops)

    def test_interleaved_reads(self):
        """Reads queue on the same streams as writes, read the most recent
        record of a name, and a read of a missing file fails."""
        def scenario(env, fs, store, node, log):
            for i in range(3):
                _waiter(env, log, ("w", i), lambda i=i: fs.write(node, "x.bp", (i + 1) * 2e8))
            _waiter(env, log, "missing", lambda: fs.read(node, "x.bp"))
            for i in range(STRIPES):
                _waiter(env, log, ("r", i), lambda: fs.read(node, "x.bp"), delay=1.5)
            # queues behind the four reads
            _waiter(env, log, "w-late", lambda: fs.write(node, "x.bp", 1e8), delay=1.5)
            _waiter(env, log, "r-late", lambda: fs.read(node, "x.bp"), delay=3.0)

        run = _same(scenario)
        assert run["log"][0] == ("missing", 0.0, FileNotFoundError,
                                 "no file named 'x.bp' on this file system")
        # every read at 1.5 s got the third write's record, the late read
        # the late write's
        reads = {tag: value for tag, _, value in run["log"][1:]}
        assert all(reads[("r", i)] is run["files"][2] for i in range(STRIPES))
        assert reads["r-late"] is run["files"][3]
        assert run["read"] == STRIPES * 6e8 + 1e8

    def test_spill_write_raced_by_its_read(self):
        """The read waits for durability, then reads the segment back."""
        def scenario(env, fs, store, node, log):
            record = _spill_record(STREAM_BANDWIDTH)
            later = _spill_record(1e8, seq=1, timestep=1)
            _waiter(env, log, "read", lambda: store.read_segment(node, record))
            _waiter(env, log, "write", lambda: store.write_segment(node, record), 0.25)
            _waiter(env, log, "write-1", lambda: store.write_segment(node, later))
            _waiter(env, log, "read-1", lambda: store.read_segment(node, later), 3.0)

        run = _same(scenario)
        times = {tag: t for tag, t, _ in run["log"]}
        assert times["write"] == 0.25 + METADATA_LATENCY + 1.0
        assert times["read"] == times["write"] + METADATA_LATENCY + 1.0
        assert [s.seq for s in run["segments"]] == [1, 0]
        assert run["store_written"] == STREAM_BANDWIDTH + 1e8

    @staticmethod
    def _preset(oracle, name):
        from repro.spec import build_preset

        with _disk_paths(oracle):
            env = Environment()
            workload = dict(steps=6) if name == "fig7" else None
            pipe = build_preset(env, name, workload=workload)
            finished = pipe.run(settle=120)
        store = getattr(pipe.failover, "store", None)
        return dict(
            finished=finished, unfated=pipe.fates.unfated(), exits=pipe.exit_log,
            end_to_end=pipe.end_to_end, files=pipe.fs.files,
            segments=store.segments if store else None,
            handovers=list(pipe.failover.handovers),
        ), env.events_processed

    @pytest.mark.parametrize("name", ["fig7", "failover"])
    def test_preset(self, name):
        live, live_events = self._preset(False, name)
        oracle, oracle_events = self._preset(True, name)
        assert live == oracle
        assert live["finished"] and not live["unfated"] and live["files"]
        if name == "failover":
            assert live["segments"] and live["handovers"]
        assert live_events < oracle_events


class TestDiskErrors:
    """A bad disk operation fails the event its caller waits on, and one
    nobody waits on raises out of ``env.run`` (both paths)."""

    CASES = {
        "negative_write": lambda env, fs, store, node: fs.write(node, "n.bp", -1.0),
        "missing_read": lambda env, fs, store, node: fs.read(node, "nope.bp"),
        "digest_mismatch": lambda env, fs, store, node: TestDiskErrors._mismatch(store, node),
        "negative_segment": lambda env, fs, store, node: store.write_segment(
            node, _spill_record(-1.0)),
    }
    ERRORS = {
        "negative_write": (ValueError, "negative write size -1.0"),
        "missing_read": (FileNotFoundError, "no file named 'nope.bp' on this file system"),
        "digest_mismatch": (ValueError, None),
        "negative_segment": (ValueError, "negative write size -1.0"),
    }

    @staticmethod
    def _mismatch(store, node):
        import dataclasses

        record = _spill_record(1e6)
        store.write_segment(node, record)
        return store.read_segment(node, dataclasses.replace(record, digest="0" * 16))

    @pytest.mark.parametrize("oracle", [False, True], ids=["live", "oracle"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reaches_the_waiter(self, case, oracle):
        run = _through(oracle, lambda env, fs, store, node, log: _waiter(
            env, log, case, lambda: self.CASES[case](env, fs, store, node)))
        assert run["raised"] is None
        [(tag, _, kind, message)] = run["log"]
        expected_kind, expected_message = self.ERRORS[case]
        assert kind is expected_kind
        if expected_message is not None:
            assert message == expected_message
        else:
            assert message.startswith("digest mismatch reading spill seq 0")

    @pytest.mark.parametrize("oracle", [False, True], ids=["live", "oracle"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_unwaited_raises_out_of_run(self, case, oracle):
        run = _through(oracle, lambda env, fs, store, node, log: self.CASES[case](
            env, fs, store, node))
        assert run["raised"][0] is self.ERRORS[case][0]

    def test_failed_spill_write_fails_its_read(self):
        """A read waiting on a segment whose write failed gets the write's
        error (the process path left it waiting forever)."""
        def scenario(env, fs, store, node, log):
            record = _spill_record(-1.0)
            _waiter(env, log, "read", lambda: store.read_segment(node, record))
            _waiter(env, log, "write", lambda: store.write_segment(node, record), 0.5)

        run = _through(False, scenario)
        assert run["raised"] is None
        assert run["log"] == [
            ("write", 0.5, ValueError, "negative write size -1.0"),
            ("read", 0.5, ValueError, "negative write size -1.0"),
        ]
        assert run["segments"] == [] and run["store_files"] == []


class TestWriteOutlivesItsWaiter:
    """A write lands whether or not anyone still waits on it: interrupting
    the process that waits on ``write_chunk`` mid-stream changes neither
    the record, the byte counter, nor when a queued write starts."""

    @staticmethod
    def scenario(env, fs, store, node, log):
        chunk = DataChunk(timestep=3, nbytes=STREAM_BANDWIDTH, provenance=("csym",),
                          chunk_id=next(env.chunk_ids))

        def waiter():
            try:
                yield fs.write_chunk(node, "csym", chunk)
                log.append(("landed", env.now))
            except Interrupt:
                log.append(("interrupted", env.now))

        proc = env.process(waiter())
        for i in range(STRIPES):  # the other streams, then one queued write
            _waiter(env, log, i, lambda i=i: fs.write(node, f"f{i}", STREAM_BANDWIDTH))

        def crash():
            yield env.timeout(0.5)
            proc.interrupt("crash")

        env.process(crash())

    def test_lands_and_keeps_the_queue(self):
        run = _same(self.scenario)
        assert run["log"][0] == ("interrupted", 0.5)
        [chunk_record] = [f for f in run["files"] if f.name == "csym.ts000003.bp"]
        assert chunk_record.written_at == METADATA_LATENCY + 1.0
        assert run["written"] == (STRIPES + 1) * STREAM_BANDWIDTH
        # the write queued behind the four starts when the first stream frees
        assert run["files"][-1].written_at == METADATA_LATENCY + 1.0 + 1.0
