"""BAD fixture: a serving module reading time.monotonic for durations.

Queue waits, execute seconds and uptime in serve/ sit beside the ``execute``
trace span, so OBS001 flags every spelling of ``time.monotonic`` there: the
call, the function passed as a value and the ``from time import monotonic``
alias.  Each must read repro.obs.clock instead.
"""

# pitexlint: path=src/repro/serve/rogue_queue.py

import time
from dataclasses import dataclass, field
from time import monotonic as now


@dataclass
class Pending:
    enqueued: float = field(default_factory=time.monotonic)


def queue_seconds(pending):
    return time.monotonic() - pending.enqueued


def execute_seconds(fn):
    started = now()
    fn()
    return now() - started
