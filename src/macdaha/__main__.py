"""python -m macdaha VERB ...: the command-line front end of macdaha.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
