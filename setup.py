"""Package metadata for ``pip install -e .``.

The package lives under ``src/`` and needs only the standard library at
run time; the test and bench suites also need ``hypothesis``, ``pytest``
and ``pytest-benchmark``.  Where the ``wheel`` package is missing, PEP
660 editable installs cannot build; ``pip install -e .
--no-use-pep517 --no-build-isolation`` then falls back to ``setup.py
develop``, which reads the metadata below.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Synchronization processor synthesis and differential "
        "verification for latency-insensitive systems"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
