"""Contracts that tools outside the package rely on."""

import ast
import importlib
import inspect
from pathlib import Path

from snailtwpa import cli

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_commands_are_public_functions_of_cli():
    # a tracer wraps the public functions of cli and finds the commands
    # among them by identity
    for name, command in cli.COMMANDS.items():
        assert inspect.isfunction(command), name
        assert command.__module__ == cli.__name__ and not command.__name__.startswith("_"), name
        assert getattr(cli, command.__name__) is command, name


def test_every_command_has_a_table():
    # parse reads a command's config by its table
    assert set(cli.COMMANDS) == set(cli.TABLES)


def test_demo_imports_exist():
    # checked from the source, without running the demos
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("snailtwpa"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("snailtwpa"):
                        importlib.import_module(alias.name)
