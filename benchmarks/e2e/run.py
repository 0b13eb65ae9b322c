"""Script entry point: ``python3 benchmarks/e2e/run.py --workload ...``.

Puts the checkout and its ``src/`` on the import path (the script's
own directory is dropped, so no module here can shadow the standard
library) and hands over to :mod:`benchmarks.e2e.harness`.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[0:1] = [str(root / "src"), str(root)]
    from benchmarks.e2e.harness import main

    sys.exit(main())
