import sys
from pathlib import Path

# The benchmark's modules import each other by name; the package is read from src.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
