"""``python -m psdg``: the same command line as the ``psdg`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
