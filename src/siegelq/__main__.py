"""Run the command-line front end as ``python -m siegelq``."""

from .cli import main

if __name__ == "__main__":
    main()
