"""Package metadata: ``pyproject.toml`` installs the ``speakup-repro`` command."""

import importlib
import os
import tomllib

import repro.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _project():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        return tomllib.load(handle)


def test_console_script_resolves_to_cli_main():
    target = _project()["project"]["scripts"]["speakup-repro"]
    module_name, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module_name), attribute) is repro.cli.main


def test_metadata_declares_numpy_and_the_src_layout():
    document = _project()
    assert "numpy>=1.22" in document["project"]["dependencies"]
    assert document["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
