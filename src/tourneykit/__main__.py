"""``python -m tourneykit``: the command-line front door."""

from .cli import main

if __name__ == "__main__":
    main()
