"""`traced_peak`: the tracemalloc peak of one call, for the memory-bound tests."""

import tracemalloc


def traced_peak(call):
    """(call(), the peak in bytes that tracemalloc saw while it ran).  Tracing
    runs only around the call and stops even when the call raises."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
