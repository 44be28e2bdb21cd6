"""Serve the JSON/HTTP facade in its own process, pointed at a daemon.

Usage: ``python perfbench/frontend.py --backend SOCKET``.  Binds a free
loopback port, prints ``host:port`` as its first stdout line and serves
until SIGTERM.
"""

from __future__ import annotations

import argparse
import signal
import threading


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", required=True,
                        help="daemon frame-protocol address")
    args = parser.parse_args()
    from repro.service import FoundryHTTPFrontend

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    frontend = FoundryHTTPFrontend(backend=args.backend)
    frontend.start()
    print(frontend.address, flush=True)
    while not stop.wait(0.5):
        pass
    frontend.stop()


if __name__ == "__main__":
    main()
