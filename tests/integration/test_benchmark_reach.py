"""What the end-to-end benchmark reaches in ``src/`` still exists.

``benchmarks/e2e`` imports library names directly (``e2e_layers``), and its
traced server wraps layer methods by attribute name (``traced_serve``).  A
rename or deletion of one of them breaks the benchmark but no test that
only imports ``repro``.  This imports the harness and installs its tracer
in a fresh interpreter, as ``run.py`` and ``traced_serve.py`` do, so such a
break fails in seconds rather than in the end-to-end smoke run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"

PROBE = f"""
import sys
sys.path.insert(0, {str(E2E)!r})
import e2e_layers, e2e_spans, run, traced_serve
traced_serve.install(e2e_spans.SpanRecorder())
print("installed")
"""


def test_the_harness_imports_and_installs_its_tracer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "installed"
