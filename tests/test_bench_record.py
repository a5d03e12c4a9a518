"""`tools/bench_record.py` names the checkout it measured: git HEAD and
whether tracked files differ from it, or null for both outside git."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_a_checkout_outside_git_records_null_for_both(tmp_path, monkeypatch):
    # git looks no higher than tmp_path for a repository
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    (tmp_path / "src").mkdir()
    assert bench_record.checkout_state(str(tmp_path)) == (None, None)


def test_the_repository_records_its_commit_and_whether_it_changed():
    commit, tracked_changes = bench_record.checkout_state(str(ROOT))
    if commit is None:
        # a source copy without its git history
        assert tracked_changes is None
    else:
        assert re.fullmatch(r"[0-9a-f]{40}", commit) and isinstance(tracked_changes, bool)
