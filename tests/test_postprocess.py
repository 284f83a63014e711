"""Tests for offline post-processing driven by provenance attributes."""

import numpy as np
import pytest

from repro import Environment, write_bp, read_bp
from repro.adios.filesystem import FileRecord
from repro.lammps import hex_lattice
from repro.postprocess import (
    PIPELINE_ORDER,
    analysis_backlog,
    complete_bp_file,
    complete_directory,
    remaining_actions,
)
from repro.smartpointer.cna import CNA_TRIANGULAR


class TestRemainingActions:
    def test_nothing_applied(self):
        assert remaining_actions([]) == list(PIPELINE_ORDER)

    def test_helper_only(self):
        assert remaining_actions(["helper"]) == ["bonds", "csym", "cna"]

    def test_fully_processed(self):
        assert remaining_actions(["helper", "bonds", "csym", "cna"]) == []

    def test_cna_branch_covers_csym(self):
        # Post-crack data skipped csym entirely; nothing remains.
        assert remaining_actions(["helper", "bonds", "cna"]) == []

    def test_csym_branch_leaves_cna(self):
        assert remaining_actions(["helper", "bonds", "csym"]) == ["cna"]

    def test_unknown_entries_ignored(self):
        assert remaining_actions(["helper", "viz"]) == ["bonds", "csym", "cna"]


class TestBacklog:
    def _record(self, name, ts, provenance):
        return FileRecord(name=name, nbytes=1, written_at=0.0, writer_node=0,
                          attributes={"timestep": ts, "provenance": provenance})

    def test_backlog_sorted_by_timestep(self):
        records = [
            self._record("b", 2, ["helper"]),
            self._record("a", 0, ["helper", "bonds"]),
        ]
        backlog = analysis_backlog(records)
        assert [e.timestep for e in backlog] == [0, 2]
        assert backlog[0].remaining == ["csym", "cna"]
        assert backlog[1].remaining == ["bonds", "csym", "cna"]

    def test_most_processed_duplicate_wins(self):
        records = [
            self._record("raw", 5, ["helper"]),
            self._record("done", 5, ["helper", "bonds", "csym"]),
        ]
        backlog = analysis_backlog(records)
        assert len(backlog) == 1
        assert backlog[0].name == "done"

    def test_records_without_timestep_skipped(self):
        record = FileRecord(name="x", nbytes=1, written_at=0, writer_node=0,
                            attributes={})
        assert analysis_backlog([record]) == []

    def test_backlog_from_real_offline_run(self):
        """End-to-end: the Figure 9 run's file system yields a coherent
        backlog covering every pruned timestep."""
        from repro.spec import PipelineSpec, WorkloadSpec, build

        env = Environment()
        wl = WorkloadSpec(sim_nodes=1024, staging_nodes=24, spare=4, steps=40)
        pipe = build(env, PipelineSpec("fig9", workload=wl, builder=dict(seed=1)))
        pipe.run(settle=300)
        backlog = analysis_backlog(pipe.fs.files)
        assert backlog
        for entry in backlog:
            # Helper ran on everything it wrote; bonds/csym/cna remain.
            assert "bonds" in entry.remaining or entry.remaining == []


class TestCompleteBPFiles:
    def _write_raw(self, path, nx=10, ny=8):
        pos, _ = hex_lattice(nx, ny)
        write_bp(path, {"positions": pos},
                 {"provenance": ["helper"], "timestep": 3})
        return pos

    def test_complete_runs_remaining_kernels(self, tmp_path):
        path = tmp_path / "helper.ts3.bp"
        pos = self._write_raw(path)
        out, applied = complete_bp_file(path)
        assert applied == ["bonds", "csym", "cna"]
        variables, attributes = read_bp(out)
        assert attributes["provenance"] == ["helper", "bonds", "csym", "cna"]
        assert attributes["completed_offline"]
        assert "bonds" in variables and "csp" in variables and "cna_labels" in variables
        # The kernels actually ran: interior atoms labeled crystalline.
        assert (variables["cna_labels"] == CNA_TRIANGULAR).sum() > 0
        assert variables["csp"].shape == (len(pos),)

    def test_complete_noop_for_finished_file(self, tmp_path):
        path = tmp_path / "done.bp"
        pos, _ = hex_lattice(6, 6)
        write_bp(path, {"positions": pos},
                 {"provenance": list(PIPELINE_ORDER), "timestep": 0})
        out, applied = complete_bp_file(path)
        assert applied == []
        assert out == path

    def test_complete_requires_coordinates(self, tmp_path):
        path = tmp_path / "odd.bp"
        write_bp(path, {"blob": np.zeros(10)}, {"provenance": ["helper"]})
        with pytest.raises(ValueError, match="coordinates"):
            complete_bp_file(path)

    def test_complete_accepts_xy_columns(self, tmp_path):
        pos, _ = hex_lattice(6, 6)
        path = tmp_path / "xy.bp"
        write_bp(path, {"x": pos[:, 0], "y": pos[:, 1]},
                 {"provenance": ["helper"], "timestep": 0})
        out, applied = complete_bp_file(path)
        assert "bonds" in applied

    def test_complete_directory_batch(self, tmp_path):
        for i in range(3):
            self._write_raw(tmp_path / f"helper.ts{i}.bp", nx=6, ny=6)
        pos, _ = hex_lattice(4, 4)
        write_bp(tmp_path / "finished.bp", {"positions": pos},
                 {"provenance": list(PIPELINE_ORDER), "timestep": 9})
        results = complete_directory(tmp_path)
        assert len(results) == 3
        # Re-running finds nothing left to do (outputs are .complete.bp).
        assert complete_directory(tmp_path) == []
