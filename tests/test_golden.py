import json

from golden import GOLDEN, run_all, versions


def test_cli_outputs_keep_their_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert versions() == golden["versions"], (
        f"the golden hashes were made under {golden['versions']}, this is "
        f"{versions()}; check the outputs by hand, then regenerate them with "
        "`python tests/golden.py`"
    )
    hashes = run_all(tmp_path)
    moved = sorted(
        f"{run}: {name}"
        for run in golden["runs"].keys() | hashes.keys()
        for name in golden["runs"].get(run, {}).keys() | hashes.get(run, {}).keys()
        if golden["runs"].get(run, {}).get(name) != hashes.get(run, {}).get(name)
    )
    assert not moved, "outputs moved:\n" + "\n".join(moved)
