"""Entry point named by ``BENCHMARK.json``: puts the checkout's root and
``src`` on the import path, then hands over to ``cli.main``."""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    from benchmarks.e2e.cli import main
    sys.exit(main())
