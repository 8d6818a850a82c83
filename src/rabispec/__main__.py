"""``python -m rabispec``: the command-line interface of ``rabispec.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
