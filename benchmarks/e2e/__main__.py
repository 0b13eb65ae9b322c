"""``PYTHONPATH=src python -m benchmarks.e2e`` (from the checkout)."""

import sys

from .harness import main

sys.exit(main())
