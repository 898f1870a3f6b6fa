"""Test-only reference implementations the production paths are checked against."""
