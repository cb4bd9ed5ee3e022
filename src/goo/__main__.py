"""``python -m goo``: the same command line as the ``goo`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
