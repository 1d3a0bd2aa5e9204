"""Set-up probe: in a fresh interpreter, import nsabc from the source tree
given as the first argument and make one one-block ``encrypt_bytes`` call.

Prints one JSON object: ``done_at`` (``time.monotonic()`` when that first call
returned, comparable with the parent's monotonic clock), ``import_s``,
``first_call_s`` and ``ok`` (the round trip, checked after the clock stops).
"""

import json
import sys
import time

# A fixed public vector: the probe times set-up, not key handling.
KEY, TWEAK_KEY, UNIT_KEY, WIDTH = (1, 2, 3, 4, 5), 6, 7, 16
PLAINTEXT = bytes(range(WIDTH // 2))


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    t0 = time.monotonic()
    import nsabc

    t1 = time.monotonic()
    blob = nsabc.encrypt_bytes(PLAINTEXT, KEY, TWEAK_KEY, UNIT_KEY, WIDTH)
    t2 = time.monotonic()
    ok = nsabc.decrypt_bytes(blob, KEY, TWEAK_KEY, UNIT_KEY) == PLAINTEXT
    print(json.dumps({"done_at": t2, "import_s": t1 - t0, "first_call_s": t2 - t1, "ok": ok}))


if __name__ == "__main__":
    main()
