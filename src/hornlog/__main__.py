"""``python -m hornlog``: the command line, as the installed ``hornlog`` runs it."""
from .cli import main

raise SystemExit(main())
