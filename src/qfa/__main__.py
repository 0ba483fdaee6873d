"""`python -m qfa`: the `qfa` command without a console script on PATH."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
