"""Rewrite tests/golden_cli.json and print each command whose record moved:
PYTHONPATH=src python tests/regenerate_golden.py"""
__import__("test_golden").regenerate()
