"""Memory a call holds, measured with tracemalloc."""

import tracemalloc


def traced_peak(call):
    """call()'s result and the most memory it held at once beyond what
    was allocated before it, in bytes, whether or not tracing is on."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
