"""``python -m repro`` — command line entry point."""

import sys

from repro import cli

if __name__ == "__main__":
    sys.exit(cli.main())
