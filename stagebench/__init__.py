"""Stage serving benchmark (see run.py)."""
