"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(tmp_path):
    # each ```python block in a fresh interpreter, in an empty directory for
    # the files it writes: a block that names a name the package no longer
    # exports fails here
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        out = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
