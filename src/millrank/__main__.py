"""``python -m millrank``: the command-line interface of :mod:`millrank.cli`."""

import sys

from .cli import main

sys.exit(main())
