"""`python -m bosetraj`: the `bosetraj` command line."""
from .cli import main

raise SystemExit(main())
