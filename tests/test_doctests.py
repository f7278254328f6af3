"""The examples in the package's docstrings run as part of the tests."""

import doctest
import importlib
import pkgutil

import hamfix


def test_docstring_examples_pass():
    attempted = failed = 0
    for info in pkgutil.iter_modules(hamfix.__path__):
        if info.name != "__main__":  # the entry point script
            module = importlib.import_module(f"hamfix.{info.name}")
            result = doctest.testmod(module)
            attempted += result.attempted
            failed += result.failed
    assert failed == 0
    assert attempted >= 2
