"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfoCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Tesla C2070" in out
        assert "GTX680" in out
        assert "Tesla K20" in out
        assert "144.00" in out  # Table 1 pin bandwidth

    def test_matrices(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "cage12" in out and "webbase-1M" in out
        assert out.count("\n") > 30


class TestMatrixCommands:
    def test_analyze_suite_name(self, capsys):
        assert main(["analyze", "epb3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "non-zeros" in out
        assert "delta width" in out

    def test_analyze_mtx_file(self, capsys, tmp_path, paper_matrix):
        from repro.matrices.io import write_matrix_market

        path = tmp_path / "a.mtx"
        write_matrix_market(paper_matrix, path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 x 5" in out

    def test_unknown_matrix_errors(self, capsys):
        assert main(["analyze", "not_a_matrix"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compress(self, capsys):
        assert main(["compress", "venkat01", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "space savings" in out
        assert "bro_ell" in out

    def test_compress_bro_coo(self, capsys):
        assert main(
            ["compress", "epb3", "--scale", "0.02", "--format", "bro_coo"]
        ) == 0
        assert "bro_coo" in capsys.readouterr().out

    def test_spmv(self, capsys):
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--device", "gtx680"]
        ) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "GFlop/s" in out
        assert "GTX680" in out

    def test_advise(self, capsys):
        assert main(["advise", "epb3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Format ranking" in out
        assert "1." in out


class TestBenchCommand:
    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "Tesla K20" in capsys.readouterr().out

    def test_bench_table3_scaled(self, capsys):
        assert main(["bench", "table3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "shipsec1" in out

    def test_bench_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])


class TestExportCommand:
    def test_export_and_reload(self, capsys, tmp_path):
        out = tmp_path / "epb3.mtx"
        assert main(["export", "epb3", str(out), "--scale", "0.01"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["analyze", str(out)]) == 0
        assert "non-zeros" in capsys.readouterr().out

    def test_export_unknown_matrix(self, capsys, tmp_path):
        assert main(["export", "nope", str(tmp_path / "x.mtx")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck passed" in out
        assert "bro_ell" in out
        assert "break-even" in out


class TestVerify:
    def test_verify_passes_with_zero_silent(self, capsys):
        assert main(["verify", "--faults", "30", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "zero silent corruption" in out
        assert "bro_ell" in out
        assert "silent" in out  # the detection/recovery table header

    def test_verify_reports_campaign_table(self, capsys):
        main(["verify", "--faults", "30", "--seed", "1"])
        out = capsys.readouterr().out
        for col in ("format", "fault", "injected", "detected", "recovered"):
            assert col in out


class TestJsonModes:
    def test_analyze_json(self, capsys):
        import json

        assert main(["analyze", "epb3", "--scale", "0.02", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["matrix"] == "epb3"
        assert data["nnz"] > 0
        assert "mean_delta_bits" in data

    def test_verify_json(self, capsys):
        import json

        assert main(["verify", "--faults", "20", "--seed", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["campaign"]["silent"] == 0
        assert data["campaign"]["injected"] == 20
        assert any(row["ok"] for row in data["formats"])


class TestFormatsCommand:
    def test_formats_table(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "format" in out and "kernel" in out and "serializer" in out
        for fmt in ("bro_ell", "bro_coo", "bro_hyb", "csr", "hyb"):
            assert fmt in out

    def test_formats_reports_the_host_executor(self, capsys, monkeypatch):
        from repro.kernels import backends

        monkeypatch.setattr(backends, "jit_available", lambda: False)
        monkeypatch.setattr(backends, "_SCIPY_STATE", (None, "scipy-fma"))
        assert main(["formats"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("host executor: numpy")
        assert "scipy-fma" in last

    def test_formats_json_matches_registry(self, capsys):
        import json

        from repro import registry as _registry

        assert main(["formats", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["format"] for r in rows} == set(_registry.available_formats())
        bro = next(r for r in rows if r["format"] == "bro_ell")
        assert bro["kernel"] and bro["planner"] and bro["serializer"]
        assert bro["default_kwargs"] == {"h": 256, "sym_len": 32}

    def test_formats_json_has_no_compiled_column(self, capsys):
        # Every plannable format runs on every executor, so "has compiled
        # loops" was the planner column under another name.
        import json

        assert main(["formats", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and not any("compiled" in r for r in rows)


class TestSpmvSaveLoad:
    def test_save_then_spmv_from_container(self, capsys, tmp_path):
        path = tmp_path / "epb3.brx"
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--save", str(path)]
        ) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["spmv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "GFlop/s" in out

    def test_saved_container_verifies(self, capsys, tmp_path):
        from repro.integrity.checksums import verify_integrity
        from repro.serialize import load_container

        path = tmp_path / "sealed.brx"
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--format", "bro_coo",
             "--save", str(path)]
        ) == 0
        verify_integrity(load_container(path))


class TestSpmvTrace:
    def test_trace_bro_ell(self, capsys):
        assert main(["spmv", "epb3", "--scale", "0.02", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "per-slice profile" in out

    def test_trace_bro_coo(self, capsys):
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--format", "bro_coo",
             "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-interval profile" in out
        assert "atomic" in out

    def test_trace_bro_hyb(self, capsys):
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--format", "bro_hyb",
             "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-part profile" in out
        assert "bro_coo" in out

    def test_trace_unsupported_format_errors(self, capsys):
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--format", "csr", "--trace"]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_table(self, capsys):
        assert main(["profile", "dense2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "pipeline spans" in out
        assert "roofline attribution" in out
        assert "per-block profile" in out
        assert "kernel.bro_ell" in out

    def test_profile_chrome_is_valid_trace_json(self, capsys):
        import json

        assert main(
            ["profile", "dense2", "--scale", "0.05", "--export", "chrome"]
        ) == 0
        events = json.loads(capsys.readouterr().out)
        assert isinstance(events, list) and events
        assert all(e["ph"] in ("X", "i") for e in events)
        assert any(e["name"] == "kernel.bro_ell" for e in events)

    def test_profile_process_backend_has_worker_lanes(self, capsys):
        import json

        assert main(
            ["profile", "cant", "--format", "csr", "--scale", "0.02",
             "--devices", "2", "--backend", "process",
             "--export", "chrome"]
        ) == 0
        events = json.loads(capsys.readouterr().out)
        lanes = sorted({e["pid"] for e in events if e["ph"] == "X"})
        assert lanes == [1, 2, 3]  # coordinator + one lane per worker
        meta = {e["pid"]: e["args"]["name"] for e in events
                if e.get("ph") == "M" and e["name"] == "process_name"}
        assert meta[1] == "coordinator"
        assert meta[2].startswith("worker 0")
        assert meta[3].startswith("worker 1")

    def test_profile_jsonl(self, capsys):
        import json

        assert main(
            ["profile", "dense2", "--scale", "0.05", "--export", "json"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        spans = [json.loads(ln) for ln in lines]
        assert {"matrix.generate", "spmv.dispatch"} <= {
            s["name"] for s in spans
        }

    def test_profile_prometheus(self, capsys):
        assert main(
            ["profile", "dense2", "--scale", "0.05", "--export", "prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_kernel_dram_bytes counter" in out
        assert "repro_integrity_verifications" in out

    def test_profile_output_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(
            ["profile", "dense2", "--scale", "0.05", "--export", "chrome",
             "--output", str(path)]
        ) == 0
        assert "wrote chrome export" in capsys.readouterr().out
        assert json.loads(path.read_text())

    def test_profile_bro_coo_storage(self, capsys):
        assert main(
            ["profile", "epb3", "--scale", "0.02", "--format", "bro_coo"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernel.bro_coo" in out
        assert "intvl" in out  # per-interval block profile

    def test_profile_format_flag_selects_storage(self, capsys):
        # --format is the one storage spelling; the --storage alias is gone.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "epb3", "--scale", "0.02", "--storage", "bro_coo"])
        assert exc.value.code == 2
        assert "--storage" in capsys.readouterr().err

    def test_profile_json_shorthand(self, capsys):
        import json

        assert main(["profile", "dense2", "--scale", "0.05", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        spans = [json.loads(ln) for ln in lines]
        assert any(s["name"] == "spmv.dispatch" for s in spans)


class TestShardedSpmv:
    def test_spmv_devices_flag(self, capsys):
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--devices", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "devices    : 4" in out
        assert "greedy-nnz" in out
        assert "t_comm" in out

    def test_spmv_partition_flag(self, capsys):
        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--devices", "2",
             "--partition", "slice-aligned"]
        ) == 0
        assert "slice-aligned" in capsys.readouterr().out

    def test_spmv_json(self, capsys):
        """--json emits an SpMVResponse wire envelope; the old payload
        (device counters, comms, roofline numbers) lives under meta."""
        import json

        assert main(
            ["spmv", "epb3", "--scale", "0.02", "--devices", "2", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "ok" and data["ok"] is True
        assert data["id"] == "cli"
        assert data["batch_size"] == 1
        assert data["execute_ms"] > 0
        assert "y" not in data  # CLI summaries elide the product vector
        meta = data["meta"]
        assert meta["devices"] == 2
        assert meta["comms"]["strategy"] in ("broadcast", "halo")
        assert meta["counters"]["interconnect_bytes"] > 0
        assert meta["gflops"] > 0

    def test_spmv_json_parses_as_serve_response(self, capsys):
        """The CLI envelope round-trips through SpMVResponse.from_wire —
        one schema across the socket protocol and the CLI."""
        import json

        from repro.serve import SpMVResponse

        assert main(["spmv", "epb3", "--scale", "0.02", "--json"]) == 0
        resp = SpMVResponse.from_wire(json.loads(capsys.readouterr().out))
        assert resp.ok and resp.matrix == "epb3"
        assert resp.y is None  # elided on the CLI path

    def test_spmv_single_device_json(self, capsys):
        import json

        assert main(["spmv", "epb3", "--scale", "0.02", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["devices"] == 1
        assert data["meta"]["comms"] is None


class TestScaleCommand:
    def test_scale_table(self, capsys):
        assert main(
            ["scale", "cant", "--scale", "0.05", "--devices", "1,2,4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Strong scaling" in out
        assert "speedup" in out
        assert "csr" in out  # default format

    def test_scale_json_speedup_at_four_devices(self, capsys):
        import json

        # Acceptance: matrices with >= 4*256 rows show modeled speedup > 1
        # at 4 devices in `repro scale --json` (cant@0.05 is 3100 rows).
        assert main(
            ["scale", "cant", "--scale", "0.05", "--devices", "1,4",
             "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "csr"
        four = next(r for r in data["rows"] if r["devices"] == 4)
        assert four["speedup"] > 1.0
        assert four["interconnect_bytes"] > 0

    def test_scale_bro_ell_small_dense(self, capsys):
        import json

        assert main(
            ["scale", "dense2", "--format", "bro_ell", "--devices", "1,4",
             "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        four = next(r for r in data["rows"] if r["devices"] == 4)
        assert four["speedup"] > 1.0

    def test_scale_rejects_bad_device_list(self):
        with pytest.raises(SystemExit):
            main(["scale", "cant", "--devices", "0,2"])


class TestBenchReports:
    def test_save_then_compare_clean(self, capsys, tmp_path):
        path = tmp_path / "BENCH_table1.json"
        assert main(["bench", "table1", "--save", str(path)]) == 0
        assert "wrote benchmark report" in capsys.readouterr().out
        assert main(["bench", "table1", "--compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
        assert "bench comparison passed" in out

    def test_save_default_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "table1", "--save"]) == 0
        assert (tmp_path / "BENCH_table1.json").is_file()

    def test_compare_detects_regression(self, capsys, tmp_path):
        import json

        path = tmp_path / "BENCH_table1.json"
        assert main(["bench", "table1", "--save", str(path)]) == 0
        capsys.readouterr()
        baseline = json.loads(path.read_text())
        for row in baseline["rows"]:
            row["dp_gflops"] *= 2  # current run now looks 50% slower
        path.write_text(json.dumps(baseline))
        assert main(["bench", "table1", "--compare", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "bench comparison FAILED" in out

    def test_compare_rejects_bad_baseline(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["bench", "table1", "--compare", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestMainModule:
    def test_python_dash_m_repro(self):
        import subprocess, sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "devices"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "Tesla K20" in result.stdout
