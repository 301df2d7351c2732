"""Set-up probe: a fresh interpreter imports the package and builds its tables.

Times ``import dsss_stego`` (numpy included) and the first
``build_codebook``, ``standard_code_set`` and ``code_matrix`` calls, which
later calls get from their caches, and the calibration loop just before.
Prints one JSON object; the worker starts several probes over its run.
"""

import json
import time

from speed import calibrate

calibration = calibrate()
start = time.perf_counter()
import dsss_stego  # noqa: E402  (the import is what is timed)
from dsss_stego import chipmap, stego  # noqa: E402

imported = time.perf_counter()
stego.build_codebook()
built = time.perf_counter()
chipmap.standard_code_set()
chipmap.code_matrix()
done = time.perf_counter()
print(json.dumps({
    "setup_s": done - start, "codebook_s": built - imported, "calibration_s": calibration,
}))
