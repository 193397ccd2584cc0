"""Every example script must run cleanly (small scales where supported)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"


def _env_with_src() -> dict[str, str]:
    """Child-process env with ``src`` on PYTHONPATH.

    pytest's own ``pythonpath`` ini option only patches this process's
    ``sys.path``; the example scripts run in fresh interpreters and must
    find ``repro`` regardless of how pytest was invoked.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    return env

#: (script, extra argv) — scales dialed down to keep CI fast.
CASES = [
    ("quickstart.py", []),
    ("book_aggregator.py", ["0.1"]),
    ("stock_feeds.py", ["0.01"]),
    ("parallel_detection.py", []),
    # The ROADMAP's backend-flip soak: INCREMENTAL multi-round fusion
    # under backend="numpy" must reproduce the python reference on a
    # REAL-profile (zipf-coverage) world — the script itself asserts it.
    ("incremental_soak.py", ["0.08"]),
    # The streaming stack end to end (service, epochs, queries) plus
    # the live-vs-replay lockstep parity check the script asserts.
    ("streaming_quickstart.py", []),
]


@pytest.mark.parametrize("script, argv", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, argv):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *argv],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env_with_src(),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must print something"


def test_scaling_sweep_importable():
    """scaling_sweep takes minutes at default sizes; import-check only."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "scaling_sweep", EXAMPLES / "scaling_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs module body (defs only)
    assert callable(module.main)
