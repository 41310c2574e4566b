"""Maintenance commands for the test suite's committed fixtures."""
