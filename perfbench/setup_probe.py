"""Child process behind setup_s: import the package, read the input maps
with load_backbone and build the parameters, then print the elapsed time
as JSON.  Interpreter start-up is outside the timed span.

    PYTHONPATH=src python3 perfbench/setup_probe.py INPUT_DIR
"""

import json
import sys
import time

t0 = time.perf_counter()

import cafbifpn  # noqa: E402  (the import is what is being timed)
from cafbifpn import pipeline, tensorio  # noqa: E402

in_dir = sys.argv[1]
with open(f"{in_dir}/config.json") as fh:
    cfg = tensorio.config_parse(fh.read())
backbone = tensorio.load_backbone(in_dir)
params = pipeline.build_pipeline_params(cfg, {lvl: t.dims[0] for lvl, t in backbone.items()})
elapsed = time.perf_counter() - t0

print(json.dumps({"setup_s": elapsed, "package": cafbifpn.__file__}))
