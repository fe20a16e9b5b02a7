"""The README's Python examples run as written, expected output included."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_pycon_examples():
    # the fences are stripped, or a closing ``` would be read as expected output
    blocks = re.findall(r"^```pycon\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    # one namespace for all blocks: later examples use names bound earlier
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, README.name, str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
    assert result.attempted == len(test.examples)
