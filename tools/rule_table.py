"""Write the Gauss-Jacobi rule table that ``harmonic_schwarz.sphere`` ships.

For every key of ``sphere._TABLE_KEYS`` in turn, the file holds the rule
that ``sphere._gauss_jacobi`` builds, nodes and then weights, as raw
little-endian float64 with no header.  Run it from the checkout root
after any change to the builder or to the key tuple, or to the numpy
version that CI pins:

    python tools/rule_table.py

The shipped file was written with numpy 2.4.6 (Python 3.11), the
version both CI install steps pin: the Newton sweeps' last bits follow
numpy's ``cos`` and ``tan``, and a Tier-1 test requires every rule to
match the file bit for bit.  It writes
``src/harmonic_schwarz/gauss_jacobi.f8`` and prints the key count, the
byte count, the build time and the numpy version.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from harmonic_schwarz import sphere  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    rules = [np.concatenate(sphere._gauss_jacobi(*key)) for key in sphere._TABLE_KEYS]
    data = np.concatenate(rules).astype("<f8")
    tmp = sphere._TABLE_PATH + ".part"
    data.tofile(tmp)
    os.replace(tmp, sphere._TABLE_PATH)
    print(
        f"{len(rules)} rules, {data.nbytes} bytes in {time.perf_counter() - t0:.2f} s"
        f" -> {os.path.relpath(sphere._TABLE_PATH, ROOT)} (numpy {np.__version__})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
