"""Make the program under ``src/`` importable for the benchmark's tests."""

import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[2] / "src"
if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))
