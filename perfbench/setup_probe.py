"""Time one cold set-up in a fresh process: import refbilliard, load a config.

Usage: python3 setup_probe.py SRC_DIR CONFIG_PATH
       python3 setup_probe.py --deps

Prints what was imported (the path of refbilliard's ``__init__.py``, or
``deps``) and the seconds from the start of this script to the loaded
config, which is before the first return-map call of any workload.  With
``--deps`` it imports only numpy and scipy.optimize, the dependencies that
importing refbilliard loads, and times that instead.
"""

import sys
import time

t0 = time.perf_counter()
if sys.argv[1] == "--deps":
    import numpy  # noqa: E402,F401
    import scipy.optimize  # noqa: E402,F401

    elapsed = time.perf_counter() - t0
    print("deps")
else:
    sys.path.insert(0, sys.argv[1])
    import refbilliard  # noqa: E402
    from refbilliard.config import load_config  # noqa: E402

    load_config(sys.argv[2])
    elapsed = time.perf_counter() - t0
    print(refbilliard.__file__)
print(repr(elapsed))
