"""Make the benchmark modules and the program's sources importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

run.bootstrap()
