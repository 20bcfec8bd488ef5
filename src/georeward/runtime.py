"""Thread-count control and a deterministic parallel map.

GEOFLOW_THREADS caps internal parallelism for the whole package:
unset or 0 means auto (one thread per core, capped at 8), 1 disables
threading, any other positive integer is used as-is.

ordered_map is the package's one fan-out. It runs four stages:
render_video's frame traces, score_video's pairs, the members of a GRPO
group (each member's rollout and latent reward as one task) and
write_bundle's files (each tensor computed, if it is lazy, and saved in
one task). render_video's images, flows, noisy depths and confidences
are lazy, so the frames are shaded and the rest computed when the bundle
is written, in write_bundle, not in render_video. Each stage hands it a
Tasks, which carries the pixels one task covers, and ordered_map runs
the stage serially when that is below _POOL_MIN_PIXELS, so
GEOFLOW_THREADS is a cap rather than a count.
Threads pay off only when a task's numpy calls are long enough to
amortise the GIL handoffs between them. On a 2-core host, 2 workers took
1.23-1.73x the serial time at 3072 px per task and 0.95-1.32x at 6912
px, but 0.70-0.99x at 12288 px and 0.62-0.87x at 20480 px, over a GRPO
group, render_video and score_video (tools/pool_sweep.py; BENCH_16.json,
"sweep"). So the 48x64 trainer, toy renders and toy scores run serially
and every 256x320 stage keeps its pool. The same handoffs are why the
row bands of synth's frame kernels and of score_pair
(grid._BAND_PIXELS) are not smaller. With them a 256x320 score task's
temporaries peak near 8 MB, not 17, and a second worker adds about 17 MB
to a fresh score's peak, not 26 (tools/score_peak.py; BENCH_35.json).

retain_heap keeps one malloc heap for the process. Only the CLI calls
it, because it owns its process; importing the package leaves the
host's allocator alone. With one heap the pool workers share one arena,
so arrays a worker allocates and returns pin no arena of their own; in
a library caller's process they can, which costs peak memory
(BENCH_13.json, "library").
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import ConfigError

_ENV_VAR = "GEOFLOW_THREADS"
# Smallest task, in pixels, that ordered_map runs on the pool; the
# pool/serial crossover of the sweep lies between 6912 and 12288 px.
_POOL_MIN_PIXELS = 8192


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


@dataclass(frozen=True)
class Tasks:
    """The inputs of one ordered_map stage and the pixels each task covers."""

    items: object  # any iterable
    pixels: int


def ordered_map(fn, tasks):
    """Map `fn` over `tasks.items`, preserving order.

    Runs on a thread pool when GEOFLOW_THREADS allows more than one worker
    and each task covers at least _POOL_MIN_PIXELS pixels. Every `fn` call
    must be pure, so the result is identical to the serial map regardless
    of worker count.
    """
    items = list(tasks.items)
    workers = min(thread_count(), len(items))
    if workers <= 1 or tasks.pixels < _POOL_MIN_PIXELS:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_RETAIN_BYTES = 32 << 20  # glibc's largest mmap threshold on 64-bit hosts


def retain_heap():
    """Keep freed memory in one malloc heap for the rest of the process.

    glibc otherwise hands each frame's freed temporaries back to the
    kernel and faults them in again for the next frame. This asks for one
    arena for every thread, and for blocks below 32 MiB to be neither
    mapped nor trimmed on their own. All three are needed: a fixed
    threshold turns off glibc's dynamic mmap threshold, and per-thread
    arenas grow peak memory. Does nothing where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, _RETAIN_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _RETAIN_BYTES)
