"""The README's Library examples, run as written, give the values their comments state."""
from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

import braidrep
from braidrep.errors import UsageError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_examples_give_their_commented_values():
    section = _library_section()
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    ns: dict = {}
    exec(compile("".join(blocks), str(README), "exec"), ns)
    d, tower, i = ns["d"], ns["tower"], ns["i"]

    assert d.lengths.size == 88
    assert list(d.period_census.items())[:3] == [(1, 1), (2, 4), (3, 17)]
    assert tower.level(4).rep_count == 672
    assert tower.level(4).class_count == 118
    assert tower.is_trivial_at(5) is True
    assert tower.level(6).braid_rep_count == 24

    assert i == 47 and d.lengths[i] == 2
    below, trivial = ns["below"], ns["trivial"]
    assert trivial[1].tolist() == list(range(24))
    scans = [ns["extend_to_K4"](d, [i]), below, ns["extend_step"](d, [i], [[7]], below),
             ns["extend_step"](d, [0], [[0]], trivial), ns["extend_to_braid"](d, [i], [[7]])]
    assert [(rows.tolist(), images.tolist()) for rows, images in scans] == [
        ([0, 0, 0, 0], [0, 7, 16, 23]), ([0, 0, 0], [1, 2, 5]), ([], []), ([0], [0]), ([0], [1])]
    with pytest.raises(UsageError):
        ns["extend_step"](d, [i], np.empty((1, 0), dtype=np.intp), below)
    k = ns["k"]
    a0, a1 = braidrep.decompose(braidrep.SymmetricGroup(5)).rep_vertices(np.array([k]))
    assert (k, (int(a0[0]), int(a1[0])), ns["phase"], ns["b"]) == (1151, (30, 48), 1, (26, 25))


def test_readme_lists_the_public_surface():
    # the section's first paragraph names every export, after `braidrep` itself
    listed = re.findall(r"`(\w+)`", _library_section().strip().split("\n\n", 1)[0])[1:]
    assert len(listed) == 23
    assert sorted(braidrep.__all__) == sorted(listed)
    assert all(hasattr(braidrep, name) for name in braidrep.__all__)
