"""``python -m arrowlang``: the same command line as ``arrowlang``."""

import sys

from .cli import main

sys.exit(main())
