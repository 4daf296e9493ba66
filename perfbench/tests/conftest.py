import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's modules, then the checkout's arrowtips ahead of any other copy.
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))
