"""Start the ``eblow`` CLI with the layer wrappers installed.

    python3 perfbench/launch.py <span-dir> serve --socket ... [serve flags]

The traced serve workloads start their daemon through this file instead of
``python -m repro``, so the daemon — and the pool workers it forks — record
spans into ``<span-dir>`` (see ``layers.py``).
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import layers
    from repro.cli import main

    layers.install(layers.Recorder(sink_dir=sys.argv[1]))
    sys.exit(main(sys.argv[2:]))
