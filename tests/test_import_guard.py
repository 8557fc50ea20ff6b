"""Importing the command line loads only what the verbs need.

Every verb run pays for `import foxcolor.cli` first.  The records are
plain classes, so dataclasses, and the inspect, ast, dis and tokenize it
pulls in, stay unloaded, as does random, which only the seeded moves
import.  The check runs in a fresh interpreter without site, whose .pth
files may load any of these.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "random", "numpy")


def test_cli_import_leaves_heavy_modules_unloaded():
    code = ("import sys; sys.path.insert(0, 'src'); import foxcolor.cli; "
            f"print(sorted(set({UNLOADED!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"
