"""`python -m mimoclr <command> ...` runs the operator CLI."""

import sys

from .cli import main

sys.exit(main())
