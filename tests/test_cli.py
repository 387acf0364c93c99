"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def column_file(tmp_path, rng):
    values = rng.integers(0, 20, size=2000)
    path = tmp_path / "col.npy"
    np.save(path, values)
    return path, values


class TestGenerate:
    def test_generates_npy(self, tmp_path, capsys):
        out = tmp_path / "data.npy"
        code = main(
            [
                "generate",
                str(out),
                "--num-records",
                "500",
                "--cardinality",
                "10",
                "--skew",
                "2",
            ]
        )
        assert code == 0
        values = np.load(out)
        assert values.size == 500
        assert values.max() < 10
        assert "wrote 500 values" in capsys.readouterr().out

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        main(["generate", str(a), "--num-records", "100", "--seed", "5"])
        main(["generate", str(b), "--num-records", "100", "--seed", "5"])
        assert np.array_equal(np.load(a), np.load(b))


class TestBuildInfoQuery:
    def test_full_cycle(self, tmp_path, column_file, capsys):
        path, values = column_file
        index_dir = tmp_path / "idx"

        assert main(
            [
                "build",
                str(path),
                str(index_dir),
                "--scheme",
                "I",
                "--codec",
                "bbc",
            ]
        ) == 0
        capsys.readouterr()

        assert main(["info", str(index_dir)]) == 0
        info = capsys.readouterr().out
        assert "I<20>/bbc" in info
        assert "records:      2000" in info

        assert main(
            ["query", str(index_dir), "--low", "3", "--high", "11"]
        ) == 0
        out = capsys.readouterr().out
        expected = int(((values >= 3) & (values <= 11)).sum())
        assert f"matching rows: {expected}" in out

    def test_membership_query_and_rows(self, tmp_path, column_file, capsys):
        path, values = column_file
        index_dir = tmp_path / "idx"
        main(["build", str(path), str(index_dir), "--scheme", "E"])
        capsys.readouterr()
        assert main(
            ["query", str(index_dir), "--values", "1,5,9", "--show-rows", "5"]
        ) == 0
        out = capsys.readouterr().out
        expected = int(np.isin(values, [1, 5, 9]).sum())
        assert f"matching rows: {expected}" in out
        assert "row ids:" in out

    def test_text_column_input(self, tmp_path, capsys):
        path = tmp_path / "col.txt"
        path.write_text("0\n1\n2\n2\n1\n")
        index_dir = tmp_path / "idx"
        assert main(["build", str(path), str(index_dir), "--scheme", "R"]) == 0
        capsys.readouterr()
        main(["query", str(index_dir), "--low", "1", "--high", "2"])
        assert "matching rows: 4" in capsys.readouterr().out

    def test_missing_column_file(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "nope.npy"), str(tmp_path / "i")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_reordered_build(self, tmp_path, column_file, capsys):
        path, values = column_file
        index_dir = tmp_path / "idx"
        assert main(
            [
                "build",
                str(path),
                str(index_dir),
                "--scheme",
                "E",
                "--codec",
                "wah",
                "--reorder",
                "lexicographic",
            ]
        ) == 0
        capsys.readouterr()

        assert main(["info", str(index_dir)]) == 0
        info = capsys.readouterr().out
        assert "reorder:" in info
        assert "lexicographic" in info

        # Answers stay in original row order despite the sorted layout.
        assert main(
            ["query", str(index_dir), "--low", "3", "--high", "11"]
        ) == 0
        out = capsys.readouterr().out
        expected = int(((values >= 3) & (values <= 11)).sum())
        assert f"matching rows: {expected}" in out


class TestAppend:
    def test_append_updates_index(self, tmp_path, column_file, capsys):
        path, values = column_file
        index_dir = tmp_path / "idx"
        main(["build", str(path), str(index_dir), "--scheme", "I"])

        batch = tmp_path / "batch.npy"
        np.save(batch, np.array([3, 3, 3]))
        assert main(["append", str(index_dir), str(batch)]) == 0
        capsys.readouterr()

        main(["query", str(index_dir), "--low", "3", "--high", "3"])
        out = capsys.readouterr().out
        expected = int((values == 3).sum()) + 3
        assert f"matching rows: {expected}" in out


class TestTheorems:
    def test_theorems_command(self, capsys):
        assert main(["theorems"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "PAPER-PROVED" in out
        assert "R optimal for EQ iff C <= 5" in out

    def test_verbose_shows_details(self, capsys):
        assert main(["theorems", "--verbose"]) == 0
        assert "C=4" in capsys.readouterr().out


class TestExperimentAndAdvise:
    def test_experiment_prints_table(self, capsys):
        assert main(["experiment", "figure6", "--num-records", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "scheme" in out

    def test_advise_prints_recommendation(self, tmp_path, capsys):
        path = tmp_path / "col.npy"
        np.save(path, np.random.default_rng(0).integers(0, 50, size=3000))
        assert main(["advise", str(path), "--budget-kb", "100000"]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out


class TestTrace:
    def build(self, tmp_path, column_file):
        path, _ = column_file
        index_dir = tmp_path / "idx"
        main(["build", str(path), str(index_dir), "--scheme", "I", "--codec", "wah"])
        return index_dir

    def test_trace_prints_json_export(self, tmp_path, column_file, capsys):
        import json

        index_dir = self.build(tmp_path, column_file)
        capsys.readouterr()
        assert main(
            ["query", str(index_dir), "--low", "2", "--high", "9", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        # Command output first, then the export document.
        assert "matching rows:" in out
        export = json.loads(out[out.index("{"):])
        assert set(export) == {"metrics", "trace"}
        assert export["metrics"]["clock.pages_read"]["_"]["value"] > 0
        (span,) = [
            s for s in export["trace"]["spans"] if s["name"] == "query"
        ]
        assert span["tags"]["scheme"] == "I"
        assert span["metrics"]["clock.read_requests"] > 0

    def test_trace_out_writes_file(self, tmp_path, column_file, capsys):
        import json

        index_dir = self.build(tmp_path, column_file)
        trace_path = tmp_path / "trace.json"
        assert main(
            [
                "query",
                str(index_dir),
                "--low",
                "2",
                "--high",
                "9",
                "--trace-out",
                str(trace_path),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "wrote trace to" in captured.err
        assert "{" not in captured.out  # export not printed
        export = json.loads(trace_path.read_text())
        assert export["metrics"]["query.executed"]

    def test_untraced_run_installs_nothing(self, tmp_path, column_file, capsys):
        from repro import obs

        index_dir = self.build(tmp_path, column_file)
        assert main(["query", str(index_dir), "--low", "2", "--high", "9"]) == 0
        assert obs.active() is None


class TestVerifyIndex:
    def build(self, tmp_path, column_file):
        path, _ = column_file
        index_dir = tmp_path / "idx"
        assert main(["build", str(path), str(index_dir)]) == 0
        return index_dir

    def test_clean_index_passes(self, tmp_path, column_file, capsys):
        index_dir = self.build(tmp_path, column_file)
        assert main(["verify-index", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "format:  v2" in out
        assert "ok:" in out

    def test_corrupt_blob_fails_with_typed_error(
        self, tmp_path, column_file, capsys
    ):
        index_dir = self.build(tmp_path, column_file)
        blob = sorted(index_dir.glob("*.bm"))[0]
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob.write_bytes(bytes(data))
        assert main(["verify-index", str(index_dir)]) == 1
        out = capsys.readouterr().out
        assert "ChecksumMismatchError" in out
        assert "CORRUPT" in out

    def test_missing_blob_fails(self, tmp_path, column_file, capsys):
        index_dir = self.build(tmp_path, column_file)
        sorted(index_dir.glob("*.bm"))[0].unlink()
        assert main(["verify-index", str(index_dir)]) == 1
        assert "MissingBlobError" in capsys.readouterr().out

    def test_orphans_reported_but_not_fatal(
        self, tmp_path, column_file, capsys
    ):
        index_dir = self.build(tmp_path, column_file)
        (index_dir / "stray.bm").write_bytes(b"junk")
        assert main(["verify-index", str(index_dir)]) == 0
        assert "orphan:  stray.bm" in capsys.readouterr().out

    def test_unreadable_manifest_is_a_cli_error(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{broken")
        assert main(["verify-index", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeBenchEngines:
    """``serve-bench --engine``: both cost conventions answer alike."""

    @staticmethod
    def answers(monkeypatch, codec: str, engine: str) -> list[bytes]:
        from repro.serve import QueryService
        from repro.serve.sharded import _FrontEnd

        recorded = []
        execute_many = _FrontEnd.execute_many

        def recording(self, queries, *args, **kwargs):
            results = execute_many(self, queries, *args, **kwargs)
            recorded.extend(result.bitmap.words.tobytes() for result in results)
            return results

        monkeypatch.setattr(QueryService, "execute_many", recording)
        assert main([
            "serve-bench", "--num-records", "3000", "--num-queries", "40",
            "--cardinality", "20", "--codec", codec, "--engine", engine,
            "--concurrency", "4", "--workers", "1", "--no-cache",
        ]) == 0
        return recorded

    @pytest.mark.parametrize("codec", ["wah", "auto"])
    def test_compressed_and_decoded_answer_alike(self, monkeypatch, codec, capsys):
        decoded = self.answers(monkeypatch, codec, "decoded")
        compressed = self.answers(monkeypatch, codec, "compressed")
        assert len(decoded) >= 40
        assert compressed == decoded
