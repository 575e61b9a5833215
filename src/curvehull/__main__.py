"""`python -m curvehull ...` runs the command-line front end."""

import sys

from . import cli

sys.exit(cli.main())
