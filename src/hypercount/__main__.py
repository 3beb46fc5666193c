"""Entry point for ``python -m hypercount``."""
import sys

from .cli import main

sys.exit(main())
