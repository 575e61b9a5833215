"""Rewrite tests/golden_cli.json: PYTHONPATH=src python tests/regenerate_golden.py"""
__import__("test_golden").regenerate()
