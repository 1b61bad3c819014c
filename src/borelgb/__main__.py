"""Run the command-line interface: ``python -m borelgb ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
