"""scipy stays off every process's start-up path.

scipy is needed only by two diagnostics (the Ljung–Box p-value and the
adjusted Rand index), which import it inside the function that uses it.
Every ingest shard, serving worker and ``repro`` invocation would
otherwise pay ~0.4 s of scipy import before doing any work.  The pytest
process has scipy loaded already, so each check runs in a fresh
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.stability import adjusted_rand_index
from repro.sysid.residuals import ljung_box

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Prints the sorted names of the loaded scipy modules as a JSON list.
_SCIPY_MODULES = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.'))))"
)


def _fresh(code):
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.streaming.shards",  # ingest shard entry
        "repro.streaming.supervisor",  # serving worker entry
    ],
)
def test_entry_module_loads_no_scipy(module):
    loaded = json.loads(_fresh(f"import {module}\n{_SCIPY_MODULES}"))
    assert loaded == []


def test_warm_report_loads_no_scipy(tmp_path, week_output):
    in_process = tmp_path / "in-process.txt"
    assert main(["report", "--days", "7", "--output", str(in_process)]) == 0
    fresh = tmp_path / "fresh.txt"
    loaded = json.loads(
        _fresh(
            f"""
            from repro.cli import main
            assert main(["report", "--days", "7", "--output", {str(fresh)!r}]) == 0
            {_SCIPY_MODULES}
            """
        )
    )
    assert loaded == []
    assert fresh.read_bytes() == in_process.read_bytes()


def test_deferred_scipy_imports_give_in_process_values():
    series = np.random.default_rng(7).standard_normal(200).tolist()
    labels_a = [0, 0, 1, 1, 2, 2, 2, 0]
    labels_b = [1, 1, 0, 0, 2, 2, 0, 0]
    expected = ljung_box(series, lags=5)
    values = json.loads(
        _fresh(
            f"""
            import json
            from repro.cluster.stability import adjusted_rand_index
            from repro.sysid.residuals import ljung_box
            result = ljung_box({series!r}, lags=5)
            ari = adjusted_rand_index({labels_a!r}, {labels_b!r})
            print(json.dumps([result.statistic, result.p_value, ari]))
            """
        )
    )
    assert values == [
        expected.statistic,
        expected.p_value,
        adjusted_rand_index(labels_a, labels_b),
    ]
