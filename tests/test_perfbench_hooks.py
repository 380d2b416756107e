import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_hooked_name_exists():
    # the benchmark's tracer swaps these attributes by name; a refactor that drops one
    # fails here rather than in a benchmark run
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans.PATCHES if not hasattr(owner, attr)]
    assert spans.PATCHES and missing == []
