import sys
from pathlib import Path

# The benchmark's modules import each other by bare name (run.py puts its
# own directory on the path); the tests do the same.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
