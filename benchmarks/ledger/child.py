"""``python -m benchmarks.ledger.child`` — the other end of ``data.in_child``.

Reads one pickled ``(fn, args)`` from standard input, calls it, and
writes the pickled result to standard output; whatever ``fn`` prints
goes to standard error instead.
"""

from __future__ import annotations

import os
import pickle
import sys


def main() -> int:
    reply = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    fn, args = pickle.load(sys.stdin.buffer)
    pickle.dump(fn(*args), reply)
    reply.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
