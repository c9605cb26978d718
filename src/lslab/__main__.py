"""`python -m lslab`: the same command line as the `lslab` console script."""

from .lab import main

# a spawned pool worker imports this module under another name
if __name__ == "__main__":
    raise SystemExit(main())
