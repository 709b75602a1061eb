"""Benchmark of the CDR analyzer; run ``python3 cdrbench/run.py --help``."""
