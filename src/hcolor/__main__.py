"""`python -m hcolor`: the command-line interface."""

from .cli import entry

entry()
