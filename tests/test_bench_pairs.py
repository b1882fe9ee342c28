"""tools/bench_pairs.py reads each end-to-end metric against its bound."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(bench_pairs):
    return bench_pairs.compare


def _pairs(parent, change):
    return list(zip(parent, change))


@pytest.mark.parametrize("better,parent,change,verdict", [
    # medians 1.0 and 1.2 against a bound of 0.1: worse by 20%
    ("lower", [1.0] * 10, [1.2] * 10, "worse"),
    ("higher", [14.0] * 10, [12.0] * 10, "worse"),
    # 5% worse, a tight parent: within the bound
    ("lower", [1.0] * 10, [1.05] * 10, "within"),
    ("higher", [14.0] * 10, [14.5] * 10, "within"),
    # the parent's IQR (0.5 .. 1.5) is wider than 10% of its median
    ("lower", [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5],
     [1.0] * 10, "unresolved"),
    # ... unless every change run beats every parent run
    ("lower", [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5],
     [0.4] * 10, "better"),
    ("higher", [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5],
     [1.6] * 10, "better"),
])
def test_verdict_against_the_bound(compare, better, parent, change, verdict):
    out = compare(_pairs(parent, change), better, 0.1)
    assert out["verdict"] == verdict
    assert out["bound"] == 0.1


def test_statistics_are_kept(compare):
    out = compare(_pairs([1.0, 2.0, 3.0], [1.0, 1.5, 3.5]), "lower", 0.25)
    assert out["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert out["change"] == {"median": 1.5, "q1": 1.25, "q3": 2.5}
    assert (out["change_wins"], out["ties"]) == (1, 1)
    assert out["median_ratio"] == 0.75
    # a parent IQR of 1.0 is wider than 25% of its median, and the
    # change's 3.5 does not beat the parent's 1.0
    assert out["verdict"] == "unresolved"


_PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45


@pytest.mark.parametrize("better,change,met", [
    # wins all 10 pairs, the median 0.5 below the parent's: met
    ("lower", [p - 0.5 for p in _PARENT], True),
    # wins all 10, but the median shift 0.4 is inside the IQR
    ("lower", [p - 0.4 for p in _PARENT], False),
    # 9 wins and one tie: met; 8 wins and two ties: not met
    ("lower", [1.0] + [p - 0.6 for p in _PARENT[1:]], True),
    ("lower", [1.0, 1.1] + [p - 0.6 for p in _PARENT[2:]], False),
    # 8 wins and two losses by far: the median still shifts, not met
    ("lower", [9.0, 9.0] + [p - 0.9 for p in _PARENT[2:]], False),
    # the same rules when higher is better
    ("higher", [p + 0.5 for p in _PARENT], True),
    ("higher", [p - 0.5 for p in _PARENT], False),
])
def test_claim_met(bench_pairs, better, change, met):
    stats = bench_pairs.compare(_pairs(_PARENT, change), better, 0.1)
    out = bench_pairs.claim(stats)
    assert out["met"] is met
    assert out["parent_iqr"] == 0.45
    assert out["change_wins"] == stats["change_wins"]


def test_src_lines_is_the_wc_total(bench_pairs, tmp_path):
    pkg = tmp_path / "src" / "bergmanlab"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("\n\nz = 3")  # no final newline
    (pkg / "notes.txt").write_text("not counted\n")
    (pkg / "sub" / "c.py").write_text("not counted\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 4
    assert bench_pairs.src_lines(str(tmp_path / "absent")) == 0


def test_module_lines_count_each_file(bench_pairs, tmp_path):
    pkg = tmp_path / "src" / "bergmanlab"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "b.py").write_text("\n\nz = 3")  # no final newline
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "notes.txt").write_text("not counted\n")
    (pkg / "sub" / "c.py").write_text("not counted\n")
    counts = bench_pairs.module_lines(str(tmp_path))
    assert counts == {"a.py": 2, "b.py": 2}
    assert list(counts) == ["a.py", "b.py"]
    assert bench_pairs.module_lines(str(tmp_path / "absent")) == {}
