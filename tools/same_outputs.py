"""Check that every configs/*.json gives the same output bytes at a git ref.

    python tools/same_outputs.py REF

REF (a commit or a branch) is checked out in a temporary git worktree.  Each
of this tree's configs is run through `python -m tuntime.cli run` twice, once
with this tree's src on the path and once with REF's.  Every CSV or
manifest.json that is not byte-identical between the two runs, or that only
one of them wrote, is named; run_info.json, which holds wall-clock data, is
left out.  The exit code is 1 if any output differs and 0 otherwise.  The
worktree is removed afterwards.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_configs(tree: Path, configs: list, out: Path) -> dict:
    """{config/file: bytes} of the CSVs and manifest.json that tree's
    package writes for each config."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    outputs = {}
    for cfg in configs:
        subprocess.run([sys.executable, "-m", "tuntime.cli", "run", str(cfg),
                        "--out", str(out / cfg.stem)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        for path in sorted((out / cfg.stem).iterdir()):
            if path.suffix == ".csv" or path.name == "manifest.json":
                outputs[f"{cfg.stem}/{path.name}"] = path.read_bytes()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git commit or branch to compare against")
    args = parser.parse_args(argv)
    configs = sorted((ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "ref"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.ref], check=True)
        try:
            here = _run_configs(ROOT, configs, Path(tmp) / "here")
            there = _run_configs(tree, configs, Path(tmp) / "there")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    differ = sorted(name for name in here.keys() | there.keys()
                    if here.get(name) != there.get(name))
    for name in differ:
        print(f"differs: {name}")
    status = f"{len(differ)} differ from" if differ else "all byte-identical to"
    print(f"{len(configs)} configs, {len(here)} outputs: {status} {args.ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
