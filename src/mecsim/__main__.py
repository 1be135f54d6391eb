"""``python -m mecsim``: the ``mecsim`` command line."""

import sys

from .cli import main

sys.exit(main())
