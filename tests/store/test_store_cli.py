"""The ``repro store`` subcommand, in process.

Stores are seeded from the committed quick-scale bundle (the one the
golden-figure regeneration merges), so no test here compiles or
replays anything.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main as cli_main
from repro.core.progcache import CACHE_SCHEMA
from repro.store import STORE_ENV_VAR, STORE_SCHEMA, ResultStore
from tests.conftest import entry_count

BUNDLE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "analysis" / "data" / "resultstore_quick.bundle.json"
)
N_BUNDLED = len(json.loads(BUNDLE.read_text())["entries"])

DIGEST = "a" * 64
SIG = "b" * 64
SCHEMA = "repro.test_point/v1"


def _seeded(tmp_path, name="src_store"):
    root = tmp_path / name
    assert cli_main(["store", "merge", str(BUNDLE), "--dir", str(root)]) == 0
    return root


def _stale_entry(store):
    key = store.put("c" * 64, SIG, SCHEMA, {"v": "stale"})
    path = store.path_for(key)
    entry = json.loads(path.read_text())
    entry["store_schema"] = STORE_SCHEMA + 1
    path.write_text(json.dumps(entry))


def test_store_cli_info_bundle_merge(tmp_path, capsys):
    src = _seeded(tmp_path)
    dst = tmp_path / "dst_store"
    capsys.readouterr()

    assert cli_main(["store", "--dir", str(src)]) == 0
    info = capsys.readouterr().out
    assert "live entries" in info
    assert "prune" not in info  # nothing stale or corrupt to flag

    bundle = tmp_path / "results.bundle.json"
    assert cli_main(["store", "bundle", str(bundle), "--dir", str(src)]) == 0
    assert f"bundled {N_BUNDLED} entries" in capsys.readouterr().out
    assert cli_main(["store", "merge", str(bundle), "--dir", str(dst)]) == 0
    assert f"{N_BUNDLED} added" in capsys.readouterr().out

    # Re-merge is a no-op: everything identical, nothing conflicting.
    assert cli_main(["store", "merge", str(src), "--dir", str(dst)]) == 0
    merged = capsys.readouterr().out
    assert f"{N_BUNDLED} identical" in merged
    assert "0 conflicts" in merged


def test_store_merge_without_source_errors(tmp_path, capsys):
    assert cli_main(["store", "merge", "--dir", str(tmp_path)]) == 2
    assert "source" in capsys.readouterr().err


def test_store_bundle_without_path_errors(tmp_path, capsys):
    assert cli_main(["store", "bundle", "--dir", str(tmp_path)]) == 2
    assert "output file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [
        {"entries": []},
        [],
        {"bundle_schema": "repro.resultstore.bundle/v1", "entries": 5},
    ],
    ids=["no_schema", "top_level_list", "entries_not_a_list"],
)
def test_store_merge_rejects_a_non_bundle_file(tmp_path, capsys, document):
    bogus = tmp_path / "not_a_bundle.json"
    bogus.write_text(json.dumps(document))
    assert cli_main(["store", "merge", str(bogus), "--dir", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err.strip()


def test_store_merge_of_a_missing_path_errors(tmp_path, capsys):
    missing = tmp_path / "no_such_store"
    assert cli_main(["store", "merge", str(missing), "--dir", str(tmp_path / "d")]) == 2
    assert str(missing) in capsys.readouterr().err
    with pytest.raises(FileNotFoundError):
        ResultStore(tmp_path / "d").merge(missing)


def test_cache_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["cache", "info"])
    assert exc.value.code == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err


def test_store_covers_both_namespaces_in_one_directory(tmp_path, capsys):
    """``--dir`` opens both codecs on one directory; each sees only its
    own entries, ``info`` reports one column per store and ``clear``
    empties both."""
    from repro.core.progcache import ProgramCache

    root = _seeded(tmp_path)
    ProgramCache(root).put("ab" * 32, {"compiled": True})
    capsys.readouterr()
    assert cli_main(["store", "info", "--dir", str(root)]) == 0
    info = capsys.readouterr().out.splitlines()
    header = next(line for line in info if line.startswith("Property"))
    assert header.split() == ["Property", "programs", "results"]
    schema = next(line for line in info if line.startswith("schema"))
    assert schema.split() == ["schema", f"v{CACHE_SCHEMA}", f"v{STORE_SCHEMA}"]
    live = next(line for line in info if line.startswith("live entries"))
    assert live.split()[-2:] == ["1", str(N_BUNDLED)]
    assert cli_main(["store", "clear", "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "removed 1 stored programs" in out
    assert f"removed {N_BUNDLED} stored results" in out
    assert not list(root.iterdir())


def test_store_merge_keeps_local_on_conflict(tmp_path, capsys):
    ours = ResultStore(tmp_path / "ours", memory=False)
    theirs = ResultStore(tmp_path / "theirs")
    ours.put(DIGEST, SIG, SCHEMA, {"v": "local"})
    theirs.put(DIGEST, SIG, SCHEMA, {"v": "remote"})
    argv = ["store", "merge", str(theirs.root), "--dir", str(ours.root)]
    assert cli_main(argv) == 0
    assert "1 conflicts, 0 corrupt skipped" in capsys.readouterr().out
    assert ResultStore(ours.root).get(DIGEST, SIG, SCHEMA) == {"v": "local"}


def test_store_info_flags_stale_and_prune_removes_it(tmp_path, capsys):
    root = _seeded(tmp_path)
    store = ResultStore(root, memory=False)
    _stale_entry(store)
    (root / f"{'d' * 64}.json").write_text("{not json")
    capsys.readouterr()

    assert cli_main(["store", "info", "--dir", str(root)]) == 0
    assert "repro store prune" in capsys.readouterr().out

    assert cli_main(["store", "prune", "--dir", str(root)]) == 0
    assert "pruned 1 stale-schema and 1 corrupt" in capsys.readouterr().out
    census = store.scan()
    assert (census.live, census.stale, census.corrupt) == (N_BUNDLED, 0, 0)


def test_store_clear_removes_everything(tmp_path, capsys):
    root = _seeded(tmp_path)
    capsys.readouterr()
    assert cli_main(["store", "clear", "--dir", str(root)]) == 0
    assert f"removed {N_BUNDLED} stored results" in capsys.readouterr().out
    assert entry_count(ResultStore(root)) == 0


def test_store_dir_defaults_to_the_environment(tmp_path, capsys, monkeypatch):
    root = _seeded(tmp_path)
    monkeypatch.setenv(STORE_ENV_VAR, str(root))
    capsys.readouterr()
    assert cli_main(["store"]) == 0
    out = capsys.readouterr().out
    assert str(root) in out
    assert str(N_BUNDLED) in out


def test_experiments_served_from_a_warm_store(tmp_path, capsys):
    """Every quick-scale design point ``figures --store`` needs is in
    the bundle, so the run adds no entry and prints what a cold run
    prints."""
    root = _seeded(tmp_path)
    capsys.readouterr()
    argv = ["figures", "table3", "fig9"]
    assert cli_main(argv + ["--store", str(root)]) == 0
    warm = capsys.readouterr().out
    assert entry_count(ResultStore(root)) == N_BUNDLED
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == warm


def test_every_experiment_served_from_a_warm_store(tmp_path, capsys):
    """``figures`` without ``--emit`` prints every driver of the one
    registry ``--emit`` writes, so the bundle that regenerates
    ``figures/`` holds each design point the text tables need; the
    provider's counters go to stderr and read no live work."""
    root = _seeded(tmp_path)
    capsys.readouterr()
    argv = ["figures", "--store", str(root)]
    assert cli_main(argv) == 0
    first = capsys.readouterr()
    assert entry_count(ResultStore(root)) == N_BUNDLED
    assert first.err.startswith("provider: replays 0, compiles 0, ")
    assert "provider" not in first.out
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first.out
