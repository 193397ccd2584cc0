"""SharedWorld teardown: no /dev/shm leak, even when a worker dies.

The regression this pins down: a ``FusionWorkspace`` (or any other
parent-side owner) holds a persistent ``SharedWorld`` block; when a
process-pool worker dies mid-round the pool breaks, the round raises,
and sloppy teardown paths could leave the shm segment linked until
reboot.  The fixes under test:

* a module-level atexit safety net (``_cleanup_live_worlds`` over a
  WeakSet of live worlds) unlinks anything still owned at interpreter
  exit, with ``close()`` idempotent so double sweeps never warn;
* ``SharedWorld.__del__`` unlinks garbage-collected worlds;
* ``ProcessesExecutor`` retires a broken process pool where it collects
  results and builds a fresh one next round instead of resubmitting into
  the corpse;
* pool workers keep only the *current* block attached, so a persistent
  pool that outlives a block does not keep the unlinked segment mapped.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.core import CopyParams, InvertedIndex
from repro.core.kernel import ColumnarEntries
from repro.fusion.workspace import FusionWorkspace
from repro.parallel.engine import ScanWorld
from repro.parallel.executors import ProcessesExecutor
from repro.parallel.shm import (
    _LIVE_WORLDS,
    SharedWorld,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no usable shared memory"
)


def _toy_columns() -> ColumnarEntries:
    return ColumnarEntries(
        probs=np.array([0.9, 0.4]),
        main=np.ones(2, dtype=bool),
        offsets=np.array([0, 2, 4], dtype=np.int64),
        providers=np.array([0, 1, 0, 2], dtype=np.int64),
    )


def _segment_exists(name: str) -> bool:
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        return (shm_dir / name).exists()
    from multiprocessing import shared_memory

    try:
        block = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    block.close()
    return True


class TestIdempotentClose:
    def test_double_close_never_warns(self):
        world = SharedWorld.create(_toy_columns(), [0.8, 0.8, 0.8], 3)
        name = world.handle.name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            world.close()
            world.close()  # second close is a silent no-op
        assert not _segment_exists(name)

    def test_closed_world_leaves_registry(self):
        world = SharedWorld.create(_toy_columns(), [0.8, 0.8, 0.8], 3)
        assert world in _LIVE_WORLDS
        world.close()
        assert world not in _LIVE_WORLDS

    def test_garbage_collected_world_unlinks(self):
        world = SharedWorld.create(_toy_columns(), [0.8, 0.8, 0.8], 3)
        name = world.handle.name
        assert _segment_exists(name)
        del world
        gc.collect()
        assert not _segment_exists(name)


class TestAtexitSafetyNet:
    def test_unclosed_world_is_swept_at_interpreter_exit(self, tmp_path):
        # A child interpreter creates a world, *keeps a live reference*
        # (so __del__ can't save it) and exits without closing: only the
        # atexit sweep stands between it and a leaked segment.
        script = tmp_path / "leaker.py"
        script.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.kernel import ColumnarEntries\n"
            "from repro.parallel.shm import SharedWorld\n"
            "cols = ColumnarEntries(\n"
            "    probs=np.array([0.9, 0.4]),\n"
            "    main=np.ones(2, dtype=bool),\n"
            "    offsets=np.array([0, 2, 4], dtype=np.int64),\n"
            "    providers=np.array([0, 1, 0, 2], dtype=np.int64),\n"
            ")\n"
            "world = SharedWorld.create(cols, [0.8] * 3, 3)\n"
            "print(world.handle.name)\n"
            "sys.stdout.flush()\n"
            # exit with the reference still live; no close()
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip()
        assert name
        assert not _segment_exists(name)
        # No double-unlink / leaked-resource warnings on the way out.
        assert "leaked shared_memory" not in proc.stderr
        assert "FileNotFoundError" not in proc.stderr


def scan_round(dataset, probabilities, accuracies, n_partitions=2):
    """``map_reduce`` arguments scanning a dataset's index in stride shares."""
    params = CopyParams()
    index = InvertedIndex.build(dataset, probabilities, accuracies, params)
    world = ScanWorld(index, list(accuracies), dataset.n_sources, columnar=True)
    positions = [range(pid, index.n_entries, n_partitions) for pid in range(n_partitions)]
    return world, positions, params, "flat"


def _die(*args):
    os._exit(1)


class _DyingWorld(ScanWorld):
    """A world whose tasks kill the worker that runs them."""

    def task(self, positions, params):
        return _die, ()


def _attached_blocks():
    from repro.parallel import shm

    return list(shm._ATTACHED)


class TestWorkerDeathMidRound:
    def test_worker_death_breaks_pool_but_leaks_nothing(
        self, example, example_probabilities, example_accuracies
    ):
        workspace = FusionWorkspace(example, CopyParams())
        try:
            executor = workspace.executor("processes")
            round_args = scan_round(example, example_probabilities, example_accuracies)
            healthy = executor.map_reduce(*round_args)
            name = executor._shared.handle.name
            assert _segment_exists(name)
            # Kill the workers mid-task: the pool breaks, the round raises.
            world = round_args[0]
            dying = _DyingWorld(
                world.index, world.accuracies, world.n_sources, columnar=False
            )
            with pytest.raises(BrokenProcessPool):
                executor.map_reduce(dying, *round_args[1:])
            # The next round must get a *fresh, working* pool, not the corpse.
            again = executor.map_reduce(*round_args)
            assert again.c_fwd.tobytes() == healthy.c_fwd.tobytes()
            assert workspace.executor("processes") is executor
        finally:
            workspace.close()
        assert not _segment_exists(name)
        # Idempotent re-close: no warnings, no double unlink.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            workspace.close()


class TestWorkerAttachmentCache:
    def test_persistent_pool_keeps_only_the_current_block(
        self, example, example_probabilities, example_accuracies, monkeypatch
    ):
        """A grown world forces a fresh block; the worker that served the
        old one must unmap it rather than cache both forever."""
        from repro.synth import book_cs

        # One worker, so both rounds and the probe share one cache.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        bigger = book_cs(scale=0.05).dataset
        executor = ProcessesExecutor()
        try:
            executor.map_reduce(
                *scan_round(example, example_probabilities, example_accuracies)
            )
            first = executor._shared.handle.name
            executor.map_reduce(
                *scan_round(
                    bigger, [0.5] * bigger.n_values, [0.8] * bigger.n_sources
                )
            )
            second = executor._shared.handle.name
            assert second != first and not _segment_exists(first)
            attached = executor._pool.submit(_attached_blocks).result(timeout=60)
            assert attached == [second]
        finally:
            executor.close()
        assert not _segment_exists(second)
