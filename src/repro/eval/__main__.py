import sys

from repro.eval.cli import main

sys.exit(main())
