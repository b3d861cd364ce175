"""python -m knowmap: the same command line as the knowmap script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
