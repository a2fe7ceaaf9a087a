"""Legacy setup shim: this environment has no `wheel` package, so PEP 660
editable installs cannot build; `pip install -e . --no-use-pep517
--no-build-isolation` (or plain `pip install -e .` with new pips) falls
back to `setup.py develop`, which needs this file.  All metadata lives in
pyproject.toml (PEP 621), which setuptools>=61 reads natively.
"""
from setuptools import setup

setup()
