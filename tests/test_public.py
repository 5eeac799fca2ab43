import re
from pathlib import Path

import tppdepth

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_public_names():
    text = README.read_text()
    section = text.split("### Public names", 1)[1].split("\n#", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(tppdepth.__all__)
    for name in names:
        assert getattr(tppdepth, name) is not None
