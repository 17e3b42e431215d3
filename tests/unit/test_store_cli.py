"""CLI surface of the experiment store: --store/--resume and the store target."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main
from repro.store import STORE_BACKENDS, ExperimentStore

#: Smallest real sweep the CLI can run: one node count, one repetition.
_TINY = ["--nodes", "50", "--repetitions", "1"]


class TestParser:
    def test_store_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["sweep", "--store", str(tmp_path), "--no-resume"]
        )
        assert args.store == tmp_path
        assert args.resume is False
        assert build_parser().parse_args(["sweep"]).resume is True

    def test_store_target_with_action(self, tmp_path):
        args = build_parser().parse_args(
            ["store", "export", "--store", str(tmp_path), "--format", "csv"]
        )
        assert args.target == "store"
        assert args.action == "export"
        assert args.format == "csv"

    def test_action_rejected_for_other_targets(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure3", "stats"])
        assert "'store' target" in capsys.readouterr().err

    def test_store_target_requires_store_and_action(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["store", "stats"])
        assert "--store" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["store", "--store", str(tmp_path)])
        assert "requires an action" in capsys.readouterr().err


class TestStoreWorkflow:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        """One store populated by a real (tiny) CLI sweep."""
        path = tmp_path_factory.mktemp("cli-store") / "store"
        assert main(["sweep", *_TINY, "--store", str(path)]) == 0
        return path

    def test_cold_run_populates_then_warm_run_hits(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["sweep", *_TINY, "--store", str(store_dir)]) == 0
        captured = capsys.readouterr()
        assert "store: 1 hits / 0 misses (100% cached)" in captured.out
        assert captured.err == "store: 1 cells cached, 0 to simulate\n"

    def test_no_resume_forces_resimulation(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["sweep", *_TINY, "--store", str(store_dir), "--no-resume"]) == 0
        captured = capsys.readouterr()
        assert "store: 0 hits / 1 misses (0% cached)" in captured.out
        assert captured.err == "store: 0 cells cached, 1 to simulate\n"

    def test_stats_action(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "cached cells" in out
        assert "duty: 1" in out

    def test_gc_action_is_a_noop_on_a_healthy_store(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["store", "gc", "--store", str(store_dir)]) == 0
        assert "gc: removed 0 items" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", sorted(STORE_BACKENDS))
    def test_export_round_trip(self, store_dir, tmp_path, capsys, fmt):
        """export -> reload through the backend -> records compare equal."""
        output = tmp_path / f"export.{fmt}"
        capsys.readouterr()
        assert main(
            [
                "store",
                "export",
                "--store",
                str(store_dir),
                "--format",
                fmt,
                "--output",
                str(output),
            ]
        ) == 0
        assert f"[wrote {output}]" in capsys.readouterr().out
        reloaded = STORE_BACKENDS[fmt].loads(output.read_text())
        with ExperimentStore(store_dir) as store:
            expected = [record for _, batch in store.iter_cells() for record in batch]
        assert reloaded == expected
        assert len(reloaded) > 0

    def test_export_to_stdout(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["store", "export", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith('{"')
