"""The comparison tools in ``tools/``, run as the command line runs them."""

from __future__ import annotations

import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEED = ROOT / "tools" / "compare_speed.py"


def compare_speed(tree: Path, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(SPEED), str(tree), "--workload", "watch_long", "--rounds", "2"]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("found_at", ["user site", "tree root"])
def test_compare_speed_refuses_a_tree_whose_thermnet_it_did_not_import(tmp_path, found_at):
    # The other tree has no src/, but its worker still finds a thermnet:
    # this checkout's, through a .pth in the user site (an editable install),
    # or one at the tree's root, which is the worker's working directory.
    tree = tmp_path / "tree"
    tree.mkdir()
    env = dict(os.environ)
    if found_at == "user site":
        if not site.ENABLE_USER_SITE:
            pytest.skip("user site disabled (a venv or -s); the 'tree root' case covers the refusal")
        env["PYTHONUSERBASE"] = str(tmp_path / "userbase")
        where = subprocess.run([sys.executable, "-c", "import site; print(site.getusersitepackages())"],
                               env=env, capture_output=True, text=True, check=True, timeout=60)
        user_site = Path(where.stdout.strip())
        user_site.mkdir(parents=True)
        (user_site / "thermnet.pth").write_text(f"{ROOT / 'src'}\n")
    else:
        (tree / "thermnet").symlink_to(ROOT / "src" / "thermnet", target_is_directory=True)
    done = compare_speed(tree, env)
    assert done.returncode != 0
    assert f"the worker for {tree} imported" in done.stderr
    assert "median" not in done.stdout


def test_compare_speed_against_this_checkout():
    done = compare_speed(ROOT)
    assert done.returncode == 0, done.stderr
    medians = [line.split()[0] for line in done.stdout.splitlines() if " median " in line]
    assert medians == ["other", "this"]
