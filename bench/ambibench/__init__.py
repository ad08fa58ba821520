"""Render, train and infer benchmark for ambidoa; the entry point is bench/run.py."""
