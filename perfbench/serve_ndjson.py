"""Workload ``serve-ndjson``: a ``repro serve`` process over the NDJSON wire.

Why: the wire (JSON frames), admission and the micro-batcher dominate,
and kernel replay runs as coalesced SpMM. Solver, sharding and integrity
checks are bypassed.

The server runs with the program's defaults over two sealed ``.brx``
containers at scale 0.05: ``qcd5_4`` as BRO-ELL (regular rows, Test
Set 1) and ``cop20k_A`` as BRO-HYB (skewed rows, Test Set 2); both
working sets fit in a 4 MiB L2. One single-threaded asyncio generator
on its own core opens two connections and sends single-vector requests
split 3:1 between the two matrices, from frames encoded before timing.

* Phase A, closed loop: eight requests in flight per connection.
* Phase B, open loop: requests due at a fixed rate of about a third of the
  phase-A capacity on the reference machine; each is timed from when it
  was due, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.formats.conversion import convert
from repro.integrity import seal
from repro.matrices.suite import generate
from repro.serialize import save_container

import harness
import inputs
import layers

SCALE = 0.05
#: (name, format, requests per round of four)
MATRICES = (("qcd5_4", "bro_ell", 3), ("cop20k_A", "bro_hyb", 1))
ROUND = sum(m[2] for m in MATRICES)
CONNECTIONS = 2
PIPELINE = 8
#: Phase-B offered load, requests/s: about a third of phase A's capacity
#: on a 2-CPU Xeon host, low enough that host noise does not tip the
#: queue into overload.
OPEN_RATE = 40.0
VECTORS = 16
SETUPS = 3
WARMUP_S = 1.0
#: Share of the measured time given to phase A (the rest is phase B).
CLOSED_SHARE = 0.75
REQUEST_TIMEOUT_S = 10.0
LINE_LIMIT = 32 * 1024 * 1024


class _Request:
    __slots__ = ("rid", "matrix", "vec", "due", "sent", "phase", "traced")

    def __init__(self, rid, matrix, vec, due, sent, phase, traced):
        self.rid, self.matrix, self.vec = rid, matrix, vec
        self.due, self.sent, self.phase, self.traced = due, sent, phase, traced


class _Server:
    """One ``repro serve`` subprocess, pinned to the program's CPUs."""

    def __init__(self, root: str, paths: List[str], cpus, env, log_path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
            + [arg for p in paths for arg in ("--matrix", p)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            for raw in self.proc.stdout:
                line = raw.decode("utf-8", "replace")
                if "listening on" in line:
                    address = line.split("listening on", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
                    break
            else:
                raise RuntimeError("repro serve exited before listening")
        finally:
            watchdog.cancel()

    def stop(self) -> None:
        """Wait for the process to exit (killing it after 30 s)."""
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Generator:
    """Single-threaded asyncio load generator with bit-exact checking."""

    def __init__(self, heads, refs, schedule, outcome, spans):
        self.heads = heads  # [matrix][vec] -> frame bytes up to the id
        #: [matrix][vec] -> (reference y as JSON text, as uint64 bits)
        self.refs = refs
        self.schedule = schedule  # (matrix, vec) per request id
        self.outcome = outcome
        self.spans = spans
        self.conns = []
        self.pending: Dict[int, _Request] = {}
        self.done: List[tuple] = []  # (request, recv_ns, frame)
        self.next_id = 0
        self.closed_until = 0
        self.control: Optional[asyncio.Future] = None
        self.idle: Optional[asyncio.Event] = None
        #: trace every other round of the request mix, so traced and
        #: untraced requests share the 3:1 split
        self.trace_round = 0

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=LINE_LIMIT)
            task = asyncio.get_running_loop().create_task(
                self._read(reader, len(self.conns)))
            self.conns.append((reader, writer, task))

    async def close(self) -> None:
        for _, writer, task in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, OSError):
                pass
        self.conns = []

    # -- sending ------------------------------------------------------
    def send(self, conn: int, phase: str, due: int) -> None:
        rid = self.next_id
        self.next_id += 1
        matrix, vec = self.schedule[rid % len(self.schedule)]
        traced = self.trace_round and (rid // self.trace_round) % 2 == 0
        t0 = time.perf_counter_ns()
        frame = self.heads[matrix][vec] + str(rid).encode() + b'"}\n'
        sent = time.perf_counter_ns()
        if traced:
            self.spans.add("client.encode", t0, sent, op=rid)
        self.pending[rid] = _Request(rid, matrix, vec, due or sent, sent,
                                     phase, traced)
        self.conns[conn][1].write(frame)

    async def control_op(self, op: str) -> dict:
        self.control = asyncio.get_running_loop().create_future()
        self.conns[0][1].write(json.dumps({"op": op}).encode() + b"\n")
        return await asyncio.wait_for(self.control, REQUEST_TIMEOUT_S)

    async def ping_ms(self, count: int = 50) -> float:
        """Median round trip of a ``ping`` frame: the socket and event
        loop cost of one request, without its payload."""
        rtts = []
        for _ in range(count):
            t0 = time.perf_counter_ns()
            await self.control_op("ping")
            rtts.append((time.perf_counter_ns() - t0) / 1e6)
        return harness.median(rtts)

    # -- receiving ----------------------------------------------------
    async def _read(self, reader, conn: int) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            recv = time.perf_counter_ns()
            frame, y_text = _split_y(line)
            if frame.get("op") != "spmv":
                if self.control is not None and not self.control.done():
                    self.control.set_result(frame)
                continue
            self._complete(frame, y_text, recv, conn, time.perf_counter_ns())

    def _complete(self, frame, y_text, recv, conn, decoded) -> None:
        rid = int(frame.get("id"))
        request = self.pending.pop(rid)
        status = frame.get("status")
        if status == "ok":
            expected = self.refs[request.matrix][request.vec]
            if y_text == expected[0] or _same_bits(y_text, expected[1]):
                self.outcome.note("ok")
            else:
                self.outcome.note("mismatch", f"request {rid}")
        elif status == "rejected":
            self.outcome.note("rejected", frame.get("error", ""))
        else:
            self.outcome.note("error", frame.get("error", ""))
        if request.traced:
            root = self.spans.add("serve.request", request.sent, recv, op=rid)
            self.spans.add("client.decode", recv, decoded, root, rid)
            self.spans.add("client.verify", decoded, time.perf_counter_ns(),
                           root, rid)
        self.done.append((request, recv, frame))
        if request.phase == "A" and time.perf_counter_ns() < self.closed_until:
            self.send(conn, "A", 0)
        if not self.pending and self.idle is not None:
            self.idle.set()

    async def drain(self) -> None:
        if self.pending:
            self.idle = asyncio.Event()
            try:
                await asyncio.wait_for(self.idle.wait(), REQUEST_TIMEOUT_S)
            except asyncio.TimeoutError:
                for request in self.pending.values():
                    self.outcome.note("timeout", f"request {request.rid}")
                self.pending.clear()
            self.idle = None

    # -- phases -------------------------------------------------------
    async def closed_loop(self, seconds: float) -> Dict[str, float]:
        cpu0, t0 = time.process_time(), time.perf_counter_ns()
        self.closed_until = t0 + int(seconds * 1e9)
        for conn in range(len(self.conns)):
            for _ in range(PIPELINE):
                self.send(conn, "A", 0)
        await asyncio.sleep(seconds)
        await self.drain()
        wall = (time.perf_counter_ns() - t0) / 1e9
        return {"generator_cpu_share": (time.process_time() - cpu0) / wall,
                "start_ns": t0}

    async def open_loop(self, seconds: float, rate: float) -> Dict[str, float]:
        cpu0, t0 = time.process_time(), time.perf_counter_ns()
        period = 1e9 / rate
        late = []
        for i in range(int(seconds * rate)):
            due = t0 + int(i * period)
            delay = (due - time.perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            late.append((time.perf_counter_ns() - due) / 1e6)
            self.send(i % len(self.conns), "B", due)
        await self.drain()
        wall = (time.perf_counter_ns() - t0) / 1e9
        return {
            "generator_cpu_share": (time.process_time() - cpu0) / wall,
            "generator_late_p50_ms": harness.pct(late, 50),
            "generator_late_p99_ms": harness.pct(late, 99),
            "generator_late_max_ms": max(late),
        }


def _split_y(line: bytes):
    """The frame without its ``y`` list, and the list's JSON text.

    Parsing a response's few scalar fields costs the generator little;
    parsing thousands of floats would make it, not the server, the
    bottleneck. ``y`` is checked against the reference's JSON text
    first (floats print as their shortest round-trip repr, so equal
    text means equal bits) and parsed only when the text differs.
    """
    i = line.find(b'"y":')
    if i < 0:
        return json.loads(line), None
    start = line.index(b"[", i)
    end = line.index(b"]", start) + 1
    return json.loads(line[:i] + b'"y": null' + line[end:]), line[start:end]


def _same_bits(y_text, reference_bits) -> bool:
    if y_text is None:
        return False
    y = np.asarray(json.loads(y_text), dtype=np.float64)
    return y.shape == reference_bits.shape and np.array_equal(
        y.view(np.uint64), reference_bits)


def _frames(names, xs) -> List[List[bytes]]:
    """Request frames up to the id, encoded once before timing."""
    heads = []
    for name, vecs in zip(names, xs):
        heads.append([
            (json.dumps({"v": 1, "op": "spmv", "matrix": name,
                         "tenant": "bench", "x": x.tolist()})[:-1]
             + ', "id": "').encode()
            for x in vecs
        ])
    return heads


def run(ctx) -> None:
    live: List[_Server] = []
    try:
        _run(ctx, live)
    finally:
        for server in live:  # a failed run must not leave a server behind
            if server.proc.poll() is None:
                server.proc.kill()
                server.stop()


def _run(ctx, live: List[_Server]) -> None:
    program, gen_cpus = ctx.program_cpus, ctx.generator_cpus
    names = [m[0] for m in MATRICES]
    watch = harness.Stopwatch()
    rng = np.random.default_rng(ctx.seed)
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))

    # -- set-up, several times; the last server stays up ----------------
    harness.pin(gen_cpus)
    matrices = {}
    server = None
    loop = asyncio.new_event_loop()
    for attempt in range(SETUPS):
        if server is not None:
            loop.run_until_complete(_shutdown(server))
        t0 = time.perf_counter()
        paths = []
        for name, fmt, _ in MATRICES:
            with watch.time("matrices.generate"):
                coo = generate(name, scale=SCALE)
            with watch.time("core.encode"):
                matrix = convert(coo, fmt, h=inputs.H)
            with watch.time("integrity.seal"):
                seal(matrix)
            path = os.path.join(ctx.work, f"{name}.brx")
            with watch.time("serialize.save"):
                save_container(matrix, path)
            paths.append(path)
            matrices[name] = matrix
        if attempt == 0:
            xs = [inputs.vectors(rng, matrices[n].shape[1], VECTORS)
                  for n in names]
        server = _Server(ctx.root, paths, program, env,
                         os.path.join(ctx.work, "serve.log"))
        live.append(server)
        loop.run_until_complete(_first_requests(server, names, xs))
        watch.times.setdefault("setup", []).append(time.perf_counter() - t0)

    # -- references, outside set-up ---------------------------------------
    refs = [[(json.dumps(y.tolist()).encode(), y.view(np.uint64))
             for y in inputs.reference_y(matrices[n], xs[i])]
            for i, n in enumerate(names)]
    # A fixed 3:1 round keeps every seed's batches alike; the seed picks
    # the vectors.
    rounds = [i for i, m in enumerate(MATRICES) for _ in range(m[2])]
    shares = [m[2] / ROUND for m in MATRICES]
    schedule = [(rounds[i % len(rounds)], int(v))
                for i, v in enumerate(rng.integers(0, VECTORS, size=4096))]
    outcome = harness.Outcome()
    spans = harness.Spans()
    gen = Generator(_frames(names, xs), refs, schedule, outcome, spans)

    closed_s = ctx.seconds * CLOSED_SHARE
    open_s = ctx.seconds - closed_s
    report: Dict[str, object] = {}

    async def drive():
        harness.reset_peak_rss(server.proc.pid)
        await gen.connect(server.port)
        await gen.closed_loop(WARMUP_S)  # warm-up window, discarded
        gen.done.clear()
        gen.trace_round = ROUND if ctx.trace else 0
        report["phase_a"] = await gen.closed_loop(closed_s)
        phase_a = list(gen.done)
        gen.done.clear()
        report["phase_b"] = await gen.open_loop(open_s, OPEN_RATE)
        phase_b = list(gen.done)
        stats = (await gen.control_op("stats")).get("stats", {})
        if ctx.trace:
            report["ping_ms"] = await gen.ping_ms()
        return phase_a, phase_b, stats

    steal = harness.StealMeter()
    phase_a, phase_b, stats = loop.run_until_complete(drive())
    report["cpu_steal_share"] = steal.share()
    rss = harness.peak_rss_mb(server.proc.pid)
    loop.run_until_complete(gen.close())
    loop.run_until_complete(_shutdown(server))
    loop.close()
    phase_a_start = report["phase_a"].pop("start_ns")

    a_ok = [(r, recv) for r, recv, f in phase_a if f.get("status") == "ok"]
    a_lat = [(recv - r.sent) / 1e6 for r, recv in a_ok]
    b_lat = [(recv - r.due) / 1e6 for r, recv, f in phase_b
             if f.get("status") == "ok"]
    gen_bound = (report["phase_a"]["generator_cpu_share"] > 0.8
                 or report["phase_b"]["generator_late_p99_ms"] > 5.0)
    closed_rate = harness.window_rate(
        phase_a_start, sorted(recv for _, recv in a_ok))
    report.update({
        "batch_size_mean": float(np.mean(
            [f["batch_size"] for _, _, f in phase_a if f.get("status") == "ok"])),
        "open_p50_ms": harness.pct(b_lat, 50),
        "ops_per_s": closed_rate,
        "p50_ms": harness.pct(a_lat, 50),
        "samples": {"closed": len(a_lat), "open": len(b_lat)},
        "generator_bound": gen_bound,
        "open_rate_per_s": OPEN_RATE,
        "working_set_bytes": {n: int(sum(matrices[n].device_bytes().values()))
                              for n in names},
        "p99_ms": harness.pct(a_lat, 99) if harness.supported(a_lat, 99) else None,
        "open_p99_ms": (harness.pct(b_lat, 99)
                        if harness.supported(b_lat, 99) else None),
    })

    if not ctx.trace:
        metrics = {
            "setup_s": watch.median("setup"),
            "peak_rss_mb": rss,
            "p90_ms": harness.pct(a_lat, 90),
        }
        ctx.finish(outcome, metrics, report)
        return

    # -- traced run: layer shares along phase-B requests, then unit costs --
    harness.pin(program)
    traced = [(r, recv, f) for r, recv, f in phase_b
              if r.traced and f.get("status") == "ok"]
    lat = np.array([(recv - r.sent) / 1e6 for r, recv, _ in traced])
    queue = np.array([f["queue_ms"] for _, _, f in traced])
    execute = np.array([f["execute_ms"] for _, _, f in traced])
    unit = layers.unit_cost_metrics(names, [matrices[n] for n in names],
                                    shares, [x[0] for x in xs], rng)
    # The wire: the server's frame decode and encode, and the bare round
    # trip of a frame over the socket and event loop.
    wire = [(c["serve.decode_us"] + c["serve.encode_us"]) / 1e3
            + report["ping_ms"] for c in unit["per_matrix"]]
    timing_ms = [c["gpu.timing_us"] / 1e3 for c in unit["per_matrix"]]
    total = lat.sum()
    path_shares = {
        "queue": queue.sum() / total,
        "kernels": execute.sum() / total,
        "wire": sum(wire[r.matrix] for r, _, _ in traced) / total,
        "gpu": sum(timing_ms[r.matrix] for r, _, _ in traced) / total,
    }
    plan_cache = stats.get("plan_cache", {})
    lookups = plan_cache.get("hits", 0) + plan_cache.get("misses", 0)
    untraced = [(recv - r.sent) / 1e6 for r, recv, _ in phase_a
                if not r.traced]
    traced_a = [(recv - r.sent) / 1e6 for r, recv, _ in phase_a if r.traced]
    measured = layers.path_metrics(path_shares, float(np.median(lat)))
    measured.update({
        "kernels.vectors_per_call": float(np.mean(
            [f["batch_size"] for _, _, f in phase_a + phase_b
             if f.get("status") == "ok"])),
        "serve.rejected": float(outcome.counts["rejected"]),
        "kernels.plan_cache_hit_ratio": (
            plan_cache.get("hits", 0) / lookups if lookups else 1.0),
        "closed_loop.ops_per_s": closed_rate,
        "closed_loop.p50_ms": harness.pct(a_lat, 50),
        "open_loop.p50_ms": harness.pct(b_lat, 50),
        "trace.overhead_pct": 100.0 * (harness.pct(traced_a, 50)
                                       / harness.pct(untraced, 50) - 1.0),
    })
    report["unit_costs_per_matrix"] = {
        f"{n} ({matrices[n].format_name})": costs
        for n, costs in zip(names, unit["per_matrix"])}
    report["serve_ms"] = {
        "queue_p50": float(np.median(queue)),
        "execute_p50": float(np.median(execute)),
        "transport_p50": float(np.median(lat - queue - execute)),
    }
    per_setup = {step: len(names) for step in ("matrices.generate",
                 "core.encode", "integrity.seal", "serialize.save")}
    metrics = layers.workload_layers(
        ctx, unit, [matrices[n] for n in names], shares, watch, per_setup,
        measured, rng)
    spans.dump(ctx.spans_path())
    ctx.finish(outcome, metrics, report)


async def _first_requests(server: _Server, names, xs) -> None:
    """Ready means one ok response per pooled matrix."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", server.port, limit=LINE_LIMIT)
    try:
        for i, name in enumerate(names):
            writer.write(json.dumps({"op": "spmv", "id": f"ready{i}",
                                     "matrix": name,
                                     "x": xs[i][0].tolist()}).encode() + b"\n")
            frame = json.loads(await asyncio.wait_for(
                reader.readline(), REQUEST_TIMEOUT_S))
            if frame.get("status") != "ok":
                raise RuntimeError(f"server not ready: {frame}")
    finally:
        writer.close()
        await writer.wait_closed()


async def _shutdown(server: _Server) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(b'{"op": "shutdown"}\n')
    await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT_S)
    writer.close()
    await writer.wait_closed()
    await asyncio.get_running_loop().run_in_executor(None, server.stop)
