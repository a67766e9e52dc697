"""Time one cold set-up in a fresh interpreter.

Usage: ``python3 setup_probe.py SRC_DIR < config.ini``

Set-up is the import of the program, ``parse_config_text``, the region
mask, and the trial-0 placement and field draw.  Prints one JSON line with
the seconds taken and a digest of the placement and field values, so the
caller can check that separate processes build the same scenario.
"""

import hashlib
import json
import sys
from time import perf_counter


def main() -> None:
    text = sys.stdin.read()
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[1])
    from senseplan.config import parse_config_text
    from senseplan.harness import build_mask, trial_field, trial_placement

    cfg = parse_config_text(text)
    mask = build_mask(cfg)
    targets, candidates = trial_placement(cfg, mask, 0)
    fld = trial_field(cfg, mask, 0, targets, candidates)
    setup_s = perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "digest": scenario_digest(targets, candidates, fld)}))


def scenario_digest(targets, candidates, fld) -> str:
    """SHA-256 of the placement and the field values at every point."""
    from senseplan.environment import field_value

    h = hashlib.sha256()
    for points in (targets, candidates):
        h.update(points.tobytes())
        for pt in points:
            h.update(repr(field_value(fld, pt)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    main()
