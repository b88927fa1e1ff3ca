"""The demo scripts run to completion.

``05_ratio_tradeoff.py`` sweeps the encrypted share over full experiments
and takes about half a minute, so CI runs it as its own step instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_accountant.py", "02_encrypted_aggregation.py",
         "03_partition_voting.py", "04_protection_modes.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
