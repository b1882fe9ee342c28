"""tools/cli_manifest.py records CLI runs by hash and reports differences."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli_manifest():
    spec = importlib.util.spec_from_file_location(
        "cli_manifest", ROOT / "tools" / "cli_manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_list(cli_manifest):
    names = [name for name, _ in cli_manifest.RUNS]
    assert len(names) == len(set(names)) == 38
    assert names[-2:] == ["egg2-hankel-conj(z1)",
                          "ball2-decompose-0.15-conj(z1)"]


def test_compare_with_itself_then_one_changed_hash(cli_manifest, tmp_path,
                                                    capsys):
    # one short run, not the run list
    runs = [("disc-kernel", ["kernel", "--domain", "disc",
                             "--resolution", "0.2"])]
    manifest = cli_manifest.build(ROOT, runs)
    record = manifest["disc-kernel"]
    assert record["exit"] == 0 and len(record["files"]) > 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(manifest))
    assert cli_manifest.main(["--compare", str(a), str(a)]) == 0
    path = sorted(record["files"])[0]
    record["files"][path] = "0" * 64
    b.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli_manifest.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() \
        == [f"disc-kernel: {path} differs"]
