"""Fresh-interpreter timing probe; run with ntnsim's src/ on PYTHONPATH.

    python3 bench/probe.py setup       # import ntnsim .. tables and fig-defaults loaded
    python3 bench/probe.py import_cli  # import ntnsim.harness.cli

Prints one JSON object: the seconds taken and the ntnsim file imported.
"""

import json
import sys
import time


def main() -> None:
    mode = sys.argv[1]
    t0 = time.perf_counter()
    if mode == "setup":
        import ntnsim
        from ntnsim.harness.config import load_fig_defaults

        ntnsim.load_atmosphere_table()
        ntnsim.load_scenario_table()
        load_fig_defaults()
    elif mode == "import_cli":
        import ntnsim.harness.cli  # noqa: F401
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "file": sys.modules["ntnsim"].__file__}))


if __name__ == "__main__":
    main()
