"""Setup shim for the legacy ``setup.py develop`` editable install.

All metadata lives in ``pyproject.toml``; this file exists only for
offline machines whose pip cannot build a PEP 660 editable wheel (no
``wheel`` package): ``python setup.py develop`` installs the package and
its ``flow-motifs`` script from ``src/``.
"""

from setuptools import setup

setup()
