"""``python -m polyzeta``: the command line of `polyzeta.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
