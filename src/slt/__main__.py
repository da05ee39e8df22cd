"""``python -m slt``: the command line, as the ``slt`` script runs it."""
from .cli import main

if __name__ == "__main__":
    main()
