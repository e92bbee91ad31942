"""scripts/domination_hash.py prints one digest of the domination sweep,
the same in independent runs."""

import os
import re
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scripts")


def test_domination_hash_same_in_two_runs():
    # two fresh interpreters, so no memo of the first run serves the second
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import domination_hash as d; print(d.digest((6,)))")
    digests = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", code, SCRIPTS],
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout.strip())
    assert re.fullmatch(r"[0-9a-f]{64}", digests[0]), digests
    assert digests[0] == digests[1]
