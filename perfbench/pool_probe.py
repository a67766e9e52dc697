"""Time one pooled run in a process of its own, so the caller can stop it.

Usage: ``python3 pool_probe.py SRC_DIR OUT_DIR WORKERS < config.ini``

Does what ``senseplan run --workers WORKERS`` does: parse, ``execute_run``
and ``write_outputs`` into OUT_DIR.  Prints one JSON line with the seconds
those took.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    text = sys.stdin.read()
    src, out_dir, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from senseplan.config import parse_config_text
    from senseplan.harness import execute_run, write_outputs

    t0 = perf_counter()
    record = execute_run(parse_config_text(text), workers=workers)
    write_outputs(record, out_dir)
    print(json.dumps({"seconds": perf_counter() - t0}))


if __name__ == "__main__":
    main()
