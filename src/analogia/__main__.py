"""`python -m analogia ...` runs the command-line interface."""
from .cli import entrypoint

entrypoint()
