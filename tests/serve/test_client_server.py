"""SpMVServer + ServeClient over a real TCP socket: protocol ops,
pipelined micro-batching, load-generator cleanliness, malformed frames
and graceful shutdown.
"""

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.errors import ServeError
from repro.exec.policy import ExecutionPolicy
from repro.kernels.dispatch import run_spmv
from repro.serve import (
    MatrixPool,
    ServeClient,
    ServerConfig,
    SpMVRequest,
    SpMVServer,
    run_load,
)

from .conftest import MATRIX, SCALE


class ServerThread:
    """A running SpMVServer on a background event loop."""

    def __init__(self, pool, config=None):
        self.pool = pool
        self.config = config or ServerConfig()
        self.server = None
        self.port = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = SpMVServer(self.pool, self.config)
            await self.server.start()
            self.port = self.server.port
            self._started.set()
            await self.server.serve_until_stopped()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start")
        return self

    def __exit__(self, *exc):
        if self.server is not None:
            try:
                with ServeClient("127.0.0.1", self.port, timeout_s=10) as c:
                    c.shutdown_server()
            except (ServeError, OSError):
                pass  # already stopped by the test body
        self._thread.join(timeout=30)


@pytest.fixture(scope="module")
def server(pool):
    with ServerThread(pool) as st:
        yield st


class TestProtocolOps:
    def test_ping_list_stats_metrics(self, server):
        with ServeClient("127.0.0.1", server.port) as c:
            assert c.ping() is True
            (entry,) = c.list_matrices()
            assert entry["name"] == MATRIX
            stats = c.stats()
            assert stats["accepting"] is True
            assert stats["max_queue"] == server.config.max_queue
            assert "plan_cache" in stats
            assert isinstance(c.prometheus(), str)

    def test_unknown_op_is_an_error_frame(self, server):
        with ServeClient("127.0.0.1", server.port) as c:
            reply = c._roundtrip({"op": "dance"})
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]

    def test_malformed_json_line_gets_error_frame(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            reply = json.loads(f.readline())
            assert reply["ok"] is False
            assert "malformed JSON" in reply["error"]
            # The connection survives a bad line: a good frame still works.
            f.write((json.dumps({"op": "ping"}) + "\n").encode())
            f.flush()
            assert json.loads(f.readline())["ok"] is True

    def test_bad_spmv_frame_keeps_request_id(self, server):
        with ServeClient("127.0.0.1", server.port) as c:
            reply = c._roundtrip({"op": "spmv", "id": "oops"})  # no matrix/x
            assert reply["id"] == "oops"
            assert reply["status"] == "error"


class TestSpmvOverSocket:
    def test_round_trip_is_bit_identical(self, server, pool, xs):
        expected = run_spmv(
            pool.get(MATRIX), xs[0], "k20",
            policy=ExecutionPolicy(plan_cache=pool.plan_cache),
        ).y
        with ServeClient("127.0.0.1", server.port) as c:
            resp = c.spmv(MATRIX, xs[0])
            prom = c.prometheus()
        assert resp.ok
        assert np.array_equal(resp.y, expected)
        # Traffic shows up in the Prometheus export.
        assert 'repro_serve_requests{status="ok"' in prom

    def test_pipeline_coalesces_and_returns_in_order(self, server, pool, xs):
        policy = ExecutionPolicy(plan_cache=pool.plan_cache)
        expected = [run_spmv(pool.get(MATRIX), x, "k20", policy=policy).y
                    for x in xs]
        reqs = [
            SpMVRequest(request_id=f"p{i}", matrix=MATRIX, x=xs[i % len(xs)])
            for i in range(12)
        ]
        with ServeClient("127.0.0.1", server.port) as c:
            responses = c.pipeline(reqs)
        assert [r.request_id for r in responses] == [r.request_id
                                                     for r in reqs]
        assert all(r.ok for r in responses)
        for i, resp in enumerate(responses):
            assert np.array_equal(resp.y, expected[i % len(xs)])
        # A pipelined burst on ONE connection must still micro-batch:
        # each spmv line runs in its own server task.
        assert max(r.batch_size for r in responses) > 1

    def test_unknown_matrix_over_the_wire(self, server, xs):
        with ServeClient("127.0.0.1", server.port) as c:
            resp = c.spmv("missing", xs[0])
        assert resp.status == "error"
        assert resp.error_type == "ServeError"

    def test_engine_fast_override_is_rejected_typed(self, server, xs):
        # "fast" is not an engine: the default "auto" already replays
        # the prepared plan. The request fails typed; the server serves on.
        with ServeClient("127.0.0.1", server.port) as c:
            bad = c.spmv(MATRIX, xs[0], policy={"engine": "fast"})
            good = c.spmv(MATRIX, xs[0])
        assert bad.status == "error"
        assert bad.error_type == "ValidationError"
        assert "engine must be one of" in bad.error
        assert good.ok

    def test_bool_devices_override_is_rejected_typed(self, server, pool, xs):
        # JSON ``true`` is not a device count; the next request on the
        # same connection is still served.
        expected = run_spmv(
            pool.get(MATRIX), xs[0], "k20",
            policy=ExecutionPolicy(plan_cache=pool.plan_cache),
        ).y
        with ServeClient("127.0.0.1", server.port) as c:
            bad = c.spmv(MATRIX, xs[0], policy={"devices": True})
            good = c.spmv(MATRIX, xs[0])
        assert bad.status == "error"
        assert bad.error_type == "ValidationError"
        assert "devices must be a positive integer" in bad.error
        assert good.ok
        assert np.array_equal(good.y, expected)

    def test_bad_override_values_fail_at_admission(self, pool, xs):
        """Each request's policy is built at admission: an unhashable
        value, an invalid one and the retired ``"jit"`` request each get
        a typed error frame without reaching the batcher, and the next
        pipelined frame on the same connection is still answered."""
        frames = [
            {"op": "spmv", "id": f"bad{i}", "matrix": MATRIX,
             "x": xs[0].tolist(), "policy": policy}
            for i, policy in enumerate([{"verify": [1]},
                                        {"verify": "bogus"},
                                        {"compute_backend": "jit"}])
        ]
        frames.append({"op": "spmv", "id": "good", "matrix": MATRIX,
                       "x": xs[0].tolist()})
        with ServerThread(pool) as st:
            with socket.create_connection(("127.0.0.1", st.port),
                                          timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b"".join(json.dumps(fr).encode() + b"\n"
                                 for fr in frames))
                f.flush()
                replies = {r["id"]: r for r in
                           (json.loads(f.readline()) for _ in frames)}
            batches = st.server.core.stats()["batches"]
        for i in range(3):
            assert replies[f"bad{i}"]["status"] == "error"
            assert replies[f"bad{i}"]["error_type"] == "ValidationError"
        assert replies["good"]["ok"] is True
        assert batches == 1  # only the good request was flushed

    def test_pipeline_rejects_duplicate_ids(self, server, xs):
        reqs = [SpMVRequest(request_id="dup", matrix=MATRIX, x=xs[0])] * 2
        with ServeClient("127.0.0.1", server.port) as c:
            with pytest.raises(ServeError, match="unique"):
                c.pipeline(reqs)


class TestLoadGenerator:
    def test_run_load_is_clean_and_batches(self, server, pool, xs):
        policy = ExecutionPolicy(plan_cache=pool.plan_cache)
        expected = [run_spmv(pool.get(MATRIX), x, "k20", policy=policy).y
                    for x in xs]
        report = run_load(
            "127.0.0.1", server.port,
            matrix=MATRIX, xs=xs, expected=expected,
            requests=48, concurrency=6,
            tenants=("acme", "globex"),
        )
        assert report.clean, report.error_samples
        assert report.ok == 48
        assert report.corrupted == 0
        assert report.mean_batch_size >= 1.0
        assert report.percentile(99) >= report.percentile(50) > 0
        desc = report.describe()
        assert desc["throughput_rps"] > 0
        assert json.dumps(desc)  # JSON-able


class TestShutdown:
    def test_graceful_shutdown_over_the_wire(self, pool):
        with ServerThread(pool) as st:
            with ServeClient("127.0.0.1", st.port) as c:
                assert c.shutdown_server() is True
            st._thread.join(timeout=30)
            assert not st._thread.is_alive()
            # The socket is gone: new connections are refused.
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", st.port), timeout=2)

    def test_idle_client_does_not_break_process_shutdown(self, tmp_path):
        # `repro serve` in its own process: one client stays connected and
        # idle while a second one asks for shutdown. The idle handler must
        # return normally, not be cancelled mid-readline at loop teardown.
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, REPRO_MATRIX_CACHE=str(tmp_path), PYTHONPATH=path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--matrix", MATRIX, "--scale", str(SCALE)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        idle = None
        try:
            port = None
            for line in proc.stdout:
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1].split()[0])
                    break
            assert port is not None, proc.stderr.read()
            idle = socket.create_connection(("127.0.0.1", port), timeout=10)
            with ServeClient("127.0.0.1", port, timeout_s=30) as c:
                assert c.ping()
                assert c.shutdown_server() is True
            _, err = proc.communicate(timeout=60)
        finally:
            if idle is not None:
                idle.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert "CancelledError" not in err, err
