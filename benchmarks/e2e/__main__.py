"""Entry point: ``python -m benchmarks.e2e`` or ``python benchmarks/e2e/__main__.py``."""

import sys
from pathlib import Path

if not __package__:
    # Run as a script: the checkout root is not on the path yet.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
