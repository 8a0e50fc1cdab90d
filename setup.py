"""Setuptools shim.

The project metadata lives in ``setup.cfg``; this file exists so that
``pip install -e .`` works in offline environments whose setuptools lacks a
bundled ``wheel`` (legacy editable installs go through ``setup.py develop``,
which needs no wheel building).
"""

from setuptools import setup

setup()
