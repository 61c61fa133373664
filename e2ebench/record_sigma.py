"""Record the fit workload's reference Sigma endpoints for a range of seeds.

Usage: ``python3 e2ebench/record_sigma.py FIRST LAST`` (inclusive, below
``inputs.FIT_SEEDS``) — merges the seeds into
``e2ebench/sigma_reference.json``.  Re-record only when a
change to the fit is *meant* to change its results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from common import use_checkout_sources


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    use_checkout_sources()
    import inputs
    from checker import SIGMA_REFERENCE, load_sigma_reference, sigma_endpoints
    from repro.core.isvd import isvd

    if not 0 <= first <= last < inputs.FIT_SEEDS:
        raise SystemExit(f"fit seeds run from 0 to {inputs.FIT_SEEDS - 1}")
    seeds = load_sigma_reference()
    for seed in range(first, last + 1):
        decomposition = isvd(inputs.fit_matrix(seed), inputs.FIT_RANK,
                             method="isvd4", target="b")
        seeds[str(seed)] = sigma_endpoints(decomposition)
        payload = {"workload": inputs.FIT_WORKLOAD, "rank": inputs.FIT_RANK,
                   "seeds": dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))}
        partial = SIGMA_REFERENCE.with_suffix(".partial")
        partial.write_text(json.dumps(payload, indent=1) + "\n")
        os.replace(partial, SIGMA_REFERENCE)
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
