"""Run tier-1 once per registered mutant and write ``MUTANTS.json``.

Usage, from the repository root::

    python tests/run_mutants.py

For each mutant of ``tests/mutants.py`` the runner copies ``src/`` to a
temporary directory, applies the substitution there, and runs tier-1
(``python -m pytest -x``) with that copy first on ``PYTHONPATH``, one mutant
at a time.  The checkout is never modified.  A mutant is ``killed`` when
tier-1 fails, ``survived`` when it passes and ``timeout`` when a run takes
longer than five minutes.  The exit status is 1 unless every mutant was
killed.  The file name keeps pytest from collecting this script into tier-1.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
TIMEOUT_S = 300.0


def run_mutant(mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="roughflow-mutant-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / "roughflow" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: `{mutant.old}` does not occur exactly "
                             f"once in src/roughflow/{mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
            PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                   "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            status, first = "timeout", None
        else:
            found = FIRST_FAILURE.search(done.stdout)
            first = found.group(1) if found else None
            status = "survived" if done.returncode == 0 else "killed"
        seconds = time.perf_counter() - start
    return {"name": mutant.name, "file": f"src/roughflow/{mutant.file}",
            "layer": mutant.layer, "status": status, "first_failure": first,
            "expected_killer": mutant.killer,
            "killed_as_expected": status == "killed" and first == mutant.killer,
            "seconds": round(seconds, 1)}


def main() -> int:
    results = []
    for mutant in MUTANTS:
        r = run_mutant(mutant)
        results.append(r)
        print(f"{r['name']}: {r['status']} in {r['seconds']} s "
              f"({r['first_failure'] or 'no failing test'})", flush=True)
    with open(ROOT / "MUTANTS.json", "w") as fh:
        json.dump({"python": sys.version.split()[0], "mutants": results}, fh,
                  indent=2, ensure_ascii=False)
        fh.write("\n")
    return 0 if all(r["status"] == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
