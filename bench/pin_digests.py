"""Regenerate bench/digests.json: pinned study outputs per seed.

    python3 bench/pin_digests.py [FIRST_SEED LAST_SEED]

Runs ``fleetmaint study`` in-process at the "default" profile with two
threads, and the benchmark's thread environment, for every seed in the
range (default 0..99) and records the SHA-256 of each output file,
run_meta.json without its timestamp. The benchmark then requires
study_default and study_default_t2 to reproduce these bytes at any pinned
seed; at other seeds it only requires its samples to agree. Rerun only
when a change is meant to alter study outputs, and say so in its
description.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import DIGESTS_FILE, PROFILES, SRC, THREAD_ENV, study_digests, write_config

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))

from fleetmaint.cli import main as cli_main  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 99)
    profile = PROFILES["full"]["default"]
    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(first, last + 1):
            config = write_config(Path(tmp) / "config.json", profile, seed)
            out = Path(tmp) / f"out{seed}"
            argv = ["study", "--config", str(config), "--out", str(out), "--threads", "2"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                print(f"seed {seed}: exit {code}", file=sys.stderr)
                return 1
            pinned[str(seed)] = study_digests(out)
            print(f"seed {seed} pinned", file=sys.stderr, flush=True)
    DIGESTS_FILE.write_text(json.dumps({"default": pinned}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
