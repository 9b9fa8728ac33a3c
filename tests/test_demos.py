"""Golden digests of the demos' printed output.

Each script in ``demos/`` runs in its own interpreter with ``src`` on the
path; it must exit 0 and print exactly the pinned bytes.  The demos are
deterministic, so a change to any digest must be intentional and recorded
in CHANGES.md together with the new digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "estimator_showdown.py": "a9322ad4ac437629a94a2853f47d92b55dc01ba92c40e0a3f280a852af5bf485",
    "local_mixing.py": "67d037a1b6ba12c83bf80061d71258e227ec7c302a62864494e88fd6ecea163f",
    "policeman_burglar.py": "7e897755a3bce9853571e059eb46931e4a36fca6cb82e76a7a8ec841d881863d",
    "strongly_monotone_rates.py": "00e6b9ded314c34b769344e97c78da3f9a535f9442712829577e6f809a76f618",
    "verify_constants.py": "c82d1e305156a7f872f23040fa68c1518b79d3651e6dafbf8beeea171686ec93",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("script", sorted(DIGESTS))
def test_demo_output_digest(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env, capture_output=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[script]
