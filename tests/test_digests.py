"""bench/digests.py: its digest framing, its comparison, and one --compare of
two small trees that differ in one line."""

import dataclasses
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "digests.py"

_spec = importlib.util.spec_from_file_location("digests", SCRIPT)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


@dataclasses.dataclass
class _Pair:
    a: object
    b: object


def test_digest_tells_apart_what_the_bytes_alone_do_not():
    """An array is digested with its dtype and shape, a signed zero by its
    sign, a string apart from its bytes, a dataclass by its type and fields,
    and a sequence by its length, so none of these collide."""
    x = np.arange(6.0)
    distinct = [x, x.reshape(2, 3), x.view(np.int64), np.float64(0.0), np.float64(-0.0), 0.0,
                -0.0, "ab", b"ab", ("a", "b"), ["ab"], _Pair(1, 2), _Pair(2, 1), (1, 2), None]
    found = [digests.digest(obj) for obj in distinct]
    assert len(set(found)) == len(found)
    assert digests.digest(x.copy()) == found[0]
    assert digests.digest(np.asfortranarray(x.reshape(2, 3))) == found[1]
    assert digests.digest([1, 2]) == digests.digest((1, 2))


def test_compare_reports_every_name_and_exits_1_on_a_difference(monkeypatch, capsys):
    trees = {"a": {"x": "1", "y": "2", "only_a": "3"}, "b": {"x": "1", "y": "9", "only_b": "4"}}
    monkeypatch.setattr(digests, "_lines", lambda tree, select: trees[tree])
    assert digests.compare("a", "b", []) == 1
    assert capsys.readouterr().out.splitlines() == [
        "x equal", "y DIFFERS", "only_a DIFFERS", "only_b DIFFERS", "1 of 4 digests equal"]
    assert digests.compare("a", "a", []) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 of 3 digests equal"


def _tree(root, name, edit=None):
    """A tree of this checkout's src/ alone, with one edit (old, new) made to
    src/isothermic/transforms.py."""
    tree = root / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if edit:
        path = tree / "src" / "isothermic" / "transforms.py"
        text = path.read_text()
        assert text.count(edit[0]) == 1
        path.write_text(text.replace(*edit))
    return tree


def test_compare_two_trees(tmp_path):
    """The Moebius group on two trees, the second drawing its retried
    quadruples at another seed: the runs without retries are equal, the one
    with retries differs, and the comparison exits 1; a tree printed alone
    gives one name and SHA-256 per output."""
    a = _tree(tmp_path, "a")
    b = _tree(tmp_path, "b", ("seed_k += 101", "seed_k += 103"))
    run = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b),
                          "--select", "moebius"], capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    lines = dict(line.rsplit(" ", 1) for line in run.stdout.splitlines()[:-1])
    assert lines["moebius/seed0"] == lines["moebius/seed7"] == "equal"
    assert lines["moebius/retries"] == "DIFFERS"
    assert run.stdout.splitlines()[-1].endswith(f"of {len(lines)} digests equal")
    alone = subprocess.run([sys.executable, str(SCRIPT), "--tree", str(a), "--select", "moebius"],
                           capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in alone] == list(lines)
    assert all(len(line.split()[1]) == 64 for line in alone)
