"""Setuptools shim.

The project is fully described by ``pyproject.toml``; this file exists so
that environments without the ``wheel`` package (where PEP 660 editable
installs cannot build) can still install the package and its
``speakup-repro`` command with ``python setup.py develop``.
"""

from setuptools import setup

setup()
