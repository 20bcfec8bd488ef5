"""Thread-count control and a deterministic parallel map.

GEOFLOW_THREADS caps internal parallelism for the whole package:
unset or 0 means auto (one thread per core, capped at 8), 1 disables
threading, any other positive integer is used as-is.

ordered_map runs render_video's frames and then its flow pairs, the
pairs score_video scores, and the rollouts and latent rewards of one GRPO
group.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError

_ENV_VAR = "GEOFLOW_THREADS"


def thread_count() -> int:
    """Resolve the effective worker count from GEOFLOW_THREADS."""
    raw = os.environ.get(_ENV_VAR, "").strip()
    if raw == "":
        n = 0
    else:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"{_ENV_VAR} must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"{_ENV_VAR} must be >= 0, got {n}")
    if n == 0:
        n = min(os.cpu_count() or 1, 8)
    return n


def ordered_map(fn, items):
    """Map `fn` over `items`, preserving order.

    Runs on a thread pool when GEOFLOW_THREADS allows more than one worker.
    Every `fn` call must be pure, so the result is identical to the serial
    map regardless of worker count.
    """
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
