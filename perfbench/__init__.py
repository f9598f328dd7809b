"""End-to-end and per-layer benchmark of specvar; run ``perfbench/run.py``."""
