"""Traced launcher: install the layer wrappers, then run a ``repro``
entry point unchanged, and write the spans when it returns.

    python e2ebench/launch.py SPANS.json generate_all [generate_all args]
    python e2ebench/launch.py SPANS.json serve [serve args]

``generate_all`` runs ``repro.experiments.generate_all.main``;
``serve`` runs ``repro.cli.main(["serve", ...])`` and dumps after the
daemon drains on SIGTERM.
"""

from __future__ import annotations

import sys

import layers


def main(argv: list[str]) -> int:
    spans_path, entry, rest = argv[0], argv[1], argv[2:]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        if entry == "generate_all":
            from repro.experiments import generate_all

            return generate_all.main(rest)
        if entry == "serve":
            from repro import cli

            return cli.main(["serve", *rest])
        print(f"launch: unknown entry point {entry!r}", file=sys.stderr)
        return 2
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
