"""Regenerate bench/reference.json, the enclosures the benchmark checks
certificates against.

For every dimension from 8 to 200, a superset of what the workloads draw,
it stores lambda_plane and the m_value of each default pair, computed at
REFERENCE_BITS, a higher precision than any workload certifies at. Run it
from the repository root:

    python3 bench/make_reference.py

It takes several minutes on one core. Regenerate only on purpose: a later
change is checked against these values, so they are recorded once.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lenscert import geom  # noqa: E402
from lenscert.ball import ball_to_str  # noqa: E402

REFERENCE_BITS = 384
N_MIN, N_MAX = 8, 200


def main() -> int:
    dims = {}
    for n in range(N_MIN, N_MAX + 1):
        lam = geom.lens_quantities(n, REFERENCE_BITS).lambda_plane
        m_values = {
            "%d,%d" % (k, l): ball_to_str(geom.competitor_energy_specfun(k, l, REFERENCE_BITS).m_value)
            for k, l in geom.default_pairs(n)
        }
        dims[str(n)] = {"lambda_plane": ball_to_str(lam), "m_value": m_values}
        print("n=%d" % n, file=sys.stderr, flush=True)
    out = {"precision_bits": REFERENCE_BITS, "dims": dims}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
