"""Chaos policy semantics and the zero-silent-corruption campaign."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ShardTimeoutError, ValidationError
from repro.exec.chaos import (
    DEFAULT_CAMPAIGN_KINDS,
    PROCESS_FAULT_KINDS,
    ChaosPolicy,
    ChaosState,
    run_chaos_campaign,
)


def _trial_digest(report):
    """sha256 of a campaign's (format, kind, repeat) trial list. The
    digests below were captured before the campaign's classifier was
    rewritten: the CI commands' seeds and draw order must not move."""
    trials = [(t.format_name, t.kind, int(t.target.removeprefix("repeat ")))
              for t in report.trials]
    return hashlib.sha256(repr(trials).encode()).hexdigest()


class TestChaosPolicyValidation:
    def test_defaults(self):
        pol = ChaosPolicy()
        assert pol.kinds == PROCESS_FAULT_KINDS
        assert pol.rate == 1.0
        assert pol.max_faults is None

    @pytest.mark.parametrize("kwargs", [
        {"kinds": ()},
        {"kinds": ("kill-worker", "")},
        {"rate": 0.0},
        {"rate": 1.5},
        {"max_faults": -1},
        {"stall_s": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            ChaosPolicy(**kwargs)


class TestChaosState:
    def test_same_seed_replays_the_same_faults(self):
        a = ChaosState(ChaosPolicy(seed=9))
        b = ChaosState(ChaosPolicy(seed=9))
        plan_a = [a.plan_call(4) for _ in range(10)]
        plan_b = [b.plan_call(4) for _ in range(10)]
        assert plan_a == plan_b

    def test_max_faults_bounds_lifetime_injections(self):
        state = ChaosState(ChaosPolicy(seed=0, max_faults=2))
        events = [state.plan_call(4) for _ in range(20)]
        assert sum(e is not None for e in events) == 2
        # ... and the survivors are the first two calls (rate=1.0).
        assert events[0] is not None and events[1] is not None

    def test_event_call_index_tracks_engine_calls(self):
        state = ChaosState(ChaosPolicy(seed=0))
        events = [state.plan_call(4) for _ in range(3)]
        assert [e.call for e in events] == [0, 1, 2]

    def test_shard_pin_targets_one_shard(self):
        state = ChaosState(ChaosPolicy(seed=0, shard=2))
        assert all(state.plan_call(4).shard == 2 for _ in range(5))

    def test_rate_below_one_skips_calls(self):
        state = ChaosState(ChaosPolicy(seed=123, rate=0.2))
        events = [state.plan_call(4) for _ in range(50)]
        injected = sum(e is not None for e in events)
        assert 0 < injected < 50


class TestCampaign:
    def test_process_campaign_is_clean(self):
        report = run_chaos_campaign(
            formats=("csr",), kinds=PROCESS_FAULT_KINDS,
            workers=2, repeats=1, seed=0, shard_timeout_s=0.5,
        )
        assert report.injected == len(PROCESS_FAULT_KINDS)
        assert report.clean
        assert report.silent == 0 and report.untyped == 0
        # Every process fault on a 2-worker pool must exercise recovery.
        assert report.recovered == report.injected
        for trial in report.trials:
            assert trial.retries >= 1

    def test_container_faults_run_on_the_thread_backend(self):
        report = run_chaos_campaign(
            formats=("bro_ell",), kinds=("stream_bit_flip",),
            workers=2, backend="thread", seed=1,
        )
        assert report.clean
        assert report.injected == 1

    def test_thread_backend_rejects_process_only_kinds(self):
        with pytest.raises(ValidationError, match="process"):
            run_chaos_campaign(
                formats=("csr",), kinds=("kill-worker",), backend="thread"
            )

    def test_report_shape_round_trips_to_json(self):
        import json

        report = run_chaos_campaign(
            formats=("csr",), kinds=("corrupt-shard-result",), workers=2
        )
        doc = report.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["clean"] is True
        (row,) = doc["rows"]
        assert row["format"] == "csr"
        assert row["fault"] == "corrupt-shard-result"
        assert row["injected"] == 1

    def test_default_kind_matrix_includes_a_container_fault(self):
        assert set(PROCESS_FAULT_KINDS) < set(DEFAULT_CAMPAIGN_KINDS)
        assert "stream_bit_flip" in DEFAULT_CAMPAIGN_KINDS

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_pairs_that_do_not_apply_are_skipped(self, backend):
        # CSR has no container fault injector: its stream_bit_flip trial
        # would count a fault that was never injected.
        report = run_chaos_campaign(
            formats=("bro_ell", "csr"),
            kinds=("stream_bit_flip", "plan_bit_flip"),
            workers=2, backend=backend, seed=0,
        )
        assert [(t.format_name, t.kind) for t in report.trials] == [
            ("bro_ell", "stream_bit_flip"), ("bro_ell", "plan_bit_flip"),
            ("csr", "plan_bit_flip"),
        ]
        assert report.to_dict()["skipped"] == [
            {"format": "csr", "kind": "stream_bit_flip"}]
        assert report.clean

    def test_cli_prints_the_skipped_pairs(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--campaign", "--backend", "thread",
                     "--kinds", "stream_bit_flip", "--formats", "bro_ell,csr",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "skipped (fault does not apply): csr x stream_bit_flip\n" in out

    def test_ci_process_command_is_pinned_and_clean(self):
        report = run_chaos_campaign(
            kinds=("kill-worker", "stall-worker", "corrupt-shard-result",
                   "plan_bit_flip"),
            formats=("bro_ell", "csr"), workers=4, repeats=2, seed=0,
        )
        assert report.clean and report.injected == 16
        assert _trial_digest(report) == (
            "7e8a91cfe74d7d20add8f78526f5f8d879406e090ee9916feb7aa01b35824a86")

    def test_campaign_is_deterministic_in_seed(self):
        kw = dict(
            formats=("csr",), kinds=("kill-worker",), workers=2, seed=42
        )
        a = run_chaos_campaign(**kw).to_dict()
        b = run_chaos_campaign(**kw).to_dict()
        assert a == b


class TestThreadBackendChaos:
    @pytest.fixture(autouse=True)
    def _join_abandoned_shards(self):
        """A missed deadline leaves the stalled shard's thread running;
        join it so it cannot touch the next test's plan cache."""
        before = set(threading.enumerate())
        yield
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_ci_thread_command_is_pinned_and_clean(self):
        report = run_chaos_campaign(
            backend="thread",
            kinds=("stall-worker", "stream_bit_flip", "plan_bit_flip"),
            formats=("bro_ell", "csr"), workers=2, seed=0,
        )
        assert report.clean and report.injected == 5
        assert report.skipped == [("csr", "stream_bit_flip")]
        assert _trial_digest(report) == (
            "d7053cd6bff5fefe2a576e4881a95cc332e291c3bebfec440f45596114436a25")

    def test_process_only_kind_rejected_at_execution(self):
        from repro.exec.policy import ExecutionPolicy
        from repro.formats.conversion import convert
        from repro.kernels.dispatch import run_spmv
        from tests.conftest import random_coo

        coo = random_coo(128, 128, density=0.05, seed=0)
        mat = convert(coo, "csr")
        x = np.ones(128)
        chaos = ChaosPolicy(seed=0, kinds=("kill-worker",))
        pol = ExecutionPolicy(devices=2, backend="thread", chaos=chaos)
        with pytest.raises(ValidationError, match="process"):
            run_spmv(mat, x, "k20", policy=pol)

    @pytest.mark.parametrize("traced", [False, True])
    def test_stalled_shard_misses_its_deadline(self, traced):
        from repro.exec.policy import ExecutionPolicy
        from repro.formats.conversion import convert
        from repro.kernels.dispatch import run_spmv
        from tests.conftest import random_coo

        mat = convert(random_coo(128, 128, density=0.05, seed=0), "csr")
        chaos = ChaosPolicy(kinds=("stall-worker",), stall_s=2.0, shard=1)
        pol = ExecutionPolicy(devices=2, backend="thread",
                              shard_timeout_s=0.2, chaos=chaos)
        t0 = time.perf_counter()
        with telemetry.tracing() if traced else nullcontext():
            with pytest.raises(ShardTimeoutError) as info:
                run_spmv(mat, np.ones(128), "k20", policy=pol)
        assert info.value.shard == 1
        # Raised at the deadline, not when the stalled shard returns.
        assert time.perf_counter() - t0 < 1.0

    def test_no_deadline_runs_on_the_calling_thread(self, monkeypatch):
        from repro.exec.policy import ExecutionPolicy
        from repro.formats.conversion import convert
        from repro.kernels.dispatch import run_spmv
        from tests.conftest import random_coo

        mat = convert(random_coo(128, 128, density=0.05, seed=0), "csr")
        x = np.random.default_rng(0).standard_normal(128)
        expected = run_spmv(mat, x, "k20").y

        def no_threads(self):
            raise AssertionError("a shard call started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        pol = ExecutionPolicy(devices=2, backend="thread")
        y = run_spmv(mat, x, "k20", policy=pol).y
        assert np.array_equal(y.view(np.uint64), expected.view(np.uint64))

    def test_deadline_starts_one_runner_thread(self, monkeypatch):
        from repro.exec.policy import ExecutionPolicy
        from repro.formats.conversion import convert
        from repro.kernels.dispatch import run_spmv
        from tests.conftest import random_coo

        mat = convert(random_coo(128, 128, density=0.05, seed=0), "csr")
        started = []
        start = threading.Thread.start

        def counting(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", counting)
        pol = ExecutionPolicy(devices=4, backend="thread", shard_timeout_s=30.0)
        run_spmv(mat, np.ones(128), "k20", policy=pol)
        assert len(started) == 1

    def test_stall_stops_later_shards(self, monkeypatch):
        from repro.exec import engine
        from repro.exec.policy import ExecutionPolicy
        from repro.formats.conversion import convert
        from repro.kernels.dispatch import run_spmv
        from tests.conftest import random_coo

        mat = convert(random_coo(128, 128, density=0.05, seed=0), "csr")
        ran = []
        run_shard = engine.run_shard

        def spy(run, shard, x, device, policy, event, index):
            ran.append(index)
            return run_shard(run, shard, x, device, policy, event, index)

        monkeypatch.setattr(engine, "run_shard", spy)
        chaos = ChaosPolicy(kinds=("stall-worker",), stall_s=1.5, shard=2)
        pol = ExecutionPolicy(devices=4, backend="thread",
                              shard_timeout_s=0.2, chaos=chaos)
        before = set(threading.enumerate())
        t0 = time.perf_counter()
        with pytest.raises(ShardTimeoutError) as info:
            run_spmv(mat, np.ones(128), "k20", policy=pol)
        assert info.value.shard == 2
        assert time.perf_counter() - t0 < 1.0
        (runner,) = set(threading.enumerate()) - before
        runner.join(timeout=10.0)  # the stalled shard wakes and finishes
        assert not runner.is_alive()
        assert ran == [0, 1, 2]

    def test_abandoned_shard_does_not_hold_up_exit(self):
        """The stalled shard's thread is a daemon: the interpreter exits
        without waiting for it to wake."""
        code = (
            "import time\n"
            "import numpy as np\n"
            "from repro.errors import ShardTimeoutError\n"
            "from repro.exec.chaos import ChaosPolicy\n"
            "from repro.exec.policy import ExecutionPolicy\n"
            "from repro.formats.conversion import convert\n"
            "from repro.kernels.dispatch import run_spmv\n"
            "from tests.conftest import random_coo\n"
            "mat = convert(random_coo(128, 128, density=0.05, seed=0), 'csr')\n"
            "chaos = ChaosPolicy(kinds=('stall-worker',), stall_s=3.0, shard=1)\n"
            "pol = ExecutionPolicy(devices=2, backend='thread',\n"
            "                      shard_timeout_s=0.2, chaos=chaos)\n"
            "print(time.time(), flush=True)\n"
            "try:\n"
            "    run_spmv(mat, np.ones(128), 'k20', policy=pol)\n"
            "except ShardTimeoutError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no ShardTimeoutError')\n"
        )
        root = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=root, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(root / "src"), str(root)])},
        )
        assert proc.returncode == 0, proc.stderr
        # From the call to the end of the process, interpreter start-up
        # and imports excluded.
        assert time.time() - float(proc.stdout.split()[0]) < 1.5

