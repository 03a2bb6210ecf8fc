"""Run one shortpulse command in a fresh interpreter and record its timings.

    python3 launch.py STATS run   -- ARGS...   # shortpulse ARGS
    python3 launch.py STATS trace -- ARGS...   # the same, traced
    python3 launch.py STATS setup CONFIG       # imports + load_config only

The command runs through ``shortpulse.cli.main``, which is what the
``shortpulse`` console script calls.  The stats file receives the
``time.monotonic()`` at which set-up ended (the program's first
``load_config`` returned), the peak resident set and, when
traced, the recorded spans and counts.  CLOCK_MONOTONIC is shared by every
process on the machine, so the parent subtracts its own spawn time to get
the set-up time: interpreter start, imports and ``load_config``.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _mark_first_load(stats):
    """Rebind load_config so its first return stamps the end of set-up."""
    from shortpulse import config
    from tracer import bindings, package_modules

    original = config.load_config

    def load_config(path):
        cfg = original(path)
        stats.setdefault("ready", time.monotonic())
        return cfg

    for module, attr in bindings(package_modules(), original):
        setattr(module, attr, load_config)


def main(argv):
    stats_path, mode = argv[1], argv[2]
    rest = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    sys.path.insert(0, SRC)
    stats = {}
    code = 1
    try:
        from shortpulse import cli, config

        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise ImportError(f"shortpulse imported from {cli.__file__}, not {SRC}")
        if mode == "setup":
            config.load_config(rest[0])
            stats["ready"] = time.monotonic()
            code = 0
        else:
            tracer = None
            if mode == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            _mark_first_load(stats)
            stats["main_start"] = time.monotonic()
            try:
                code = cli.main(rest)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    stats["trace"] = tracer.export()
    except Exception:
        traceback.print_exc()
        code = 99
    finally:
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
