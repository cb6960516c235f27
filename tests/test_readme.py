"""The library quick start in README.md runs as written."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
