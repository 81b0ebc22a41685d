"""Segment lifecycle: everything a ShardedEngine creates in /dev/shm
(or tempdir) is released on clean close, on worker crash, and — via
the multiprocessing resource tracker — even when the coordinator
process is SIGKILLed mid-flight.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.tnorms import MINIMUM
from repro.exceptions import ShardingError
from repro.sharding.engine import ShardedEngine
from repro.workloads.skeletons import independent_database

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def columnar(m=2, n=80, seed=13) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(m, n, seed=seed)
    )


def segment_paths(sharded: ShardedEngine) -> list[str]:
    if sharded.backend == "shm":
        return [f"/dev/shm/{name}" for name in sharded.segment_names()]
    return list(sharded.segment_names())


def wait_gone(paths, timeout=20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(os.path.exists(path) for path in paths):
            return True
        time.sleep(0.2)
    return False


class TestCleanShutdown:
    def test_inline_close_unlinks_every_segment(self):
        sharded = ShardedEngine(columnar(), shards=3, processes=0)
        paths = segment_paths(sharded)
        sharded.top_k(MINIMUM, 5)  # populate the owner's attach cache
        assert all(os.path.exists(path) for path in paths)
        sharded.close()
        assert not any(os.path.exists(path) for path in paths)

    def test_pooled_close_unlinks_every_segment(self):
        sharded = ShardedEngine(
            columnar(), shards=2, processes=1, start_method="fork"
        )
        paths = segment_paths(sharded)
        sharded.top_k(MINIMUM, 5)
        sharded.close()
        assert not any(os.path.exists(path) for path in paths)

    def test_mmap_close_removes_backing_files(self):
        sharded = ShardedEngine(
            columnar(), shards=2, processes=0, backend="mmap"
        )
        paths = segment_paths(sharded)
        assert all(os.path.exists(path) for path in paths)
        sharded.close()
        assert not any(os.path.exists(path) for path in paths)

    def test_failed_pool_construction_releases_segments(self):
        before = (
            set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        )
        with pytest.raises(ShardingError):
            ShardedEngine(
                columnar(), shards=2, processes=1, start_method="teleport"
            )
        if os.path.isdir("/dev/shm"):
            leaked = {
                name
                for name in set(os.listdir("/dev/shm")) - before
                if name.startswith("repro_shard_")
            }
            assert not leaked


class TestWorkerCrash:
    def test_sigkilled_worker_fails_queries_but_not_cleanup(self):
        sharded = ShardedEngine(
            columnar(), shards=2, processes=1, start_method="fork"
        )
        paths = segment_paths(sharded)
        try:
            sharded.top_k(MINIMUM, 5)
            (pid,) = sharded.worker_pids()
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(ShardingError, match="worker"):
                sharded.top_k(MINIMUM, 5)
            health = sharded.pool_health()
            assert health["broken"] is True
            assert health["alive"] == 0
        finally:
            sharded.close()
        # The owner still unlinks everything: a dead worker holds no
        # reference once its process is gone.
        assert not any(os.path.exists(path) for path in paths)


class TestCoordinatorCrash:
    def test_sigkilled_coordinator_leaks_no_shm_segments(self, tmp_path):
        """SIGKILL the whole serving process tree mid-flight — worker
        then coordinator, no close() anywhere. The multiprocessing
        resource tracker outlives them both and must reap every
        registered segment once its pipe reaches EOF. (The worker is
        killed too because an idle pool worker blocks on its call
        queue forever and would otherwise outlive the coordinator,
        holding the tracker pipe — and this test's stdout — open.)"""
        script = tmp_path / "crash_coordinator.py"
        script.write_text(
            "import os, signal\n"
            "from repro.access import ColumnarScoringDatabase\n"
            "from repro.core.tnorms import MINIMUM\n"
            "from repro.sharding.engine import ShardedEngine\n"
            "from repro.workloads.skeletons import independent_database\n"
            "store = ColumnarScoringDatabase.from_scoring_database(\n"
            "    independent_database(2, 60, seed=3))\n"
            "engine = ShardedEngine(store, shards=2, processes=1,\n"
            "                       start_method='fork')\n"
            "engine.top_k(MINIMUM, 5)\n"
            "print(engine.backend)\n"
            "print('\\n'.join(engine.segment_names()), flush=True)\n"
            "for pid in engine.worker_pids():\n"
            "    os.kill(pid, signal.SIGKILL)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines, "coordinator died before printing its segments"
        backend, names = lines[0], lines[1:]
        if backend != "shm":
            pytest.skip("shm backend unavailable; mmap has no tracker")
        assert names
        paths = [f"/dev/shm/{name}" for name in names]
        assert wait_gone(paths), (
            f"segments still present after coordinator SIGKILL: "
            f"{[p for p in paths if os.path.exists(p)]}"
        )
