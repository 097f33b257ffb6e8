"""Run fraccond commands inside one fresh interpreter.

    python3 perfbench/child.py COMMANDS.json [--spans SPANS.json --op ID]

COMMANDS.json holds a list of fraccond argument lists; each is passed to
``fraccond.cli.run`` in turn and the process exits with the largest exit
code.  With ``--spans`` the import of ``fraccond.cli`` and the calls into
the functions listed in tracing.LAYERS are recorded and written there.
The package is imported from the ``src`` directory next to this one.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("commands")
    p.add_argument("--spans", default=None)
    p.add_argument("--op", type=int, default=0)
    args = p.parse_args()
    with open(args.commands) as fh:
        commands = json.load(fh)
    if args.spans is None:
        from fraccond import cli
        return max((cli.run(argv) for argv in commands), default=0)

    import tracing

    rec = tracing.Recorder(args.op)
    span = rec.open(tracing.IMPORT_SPAN, "import")
    from fraccond import cli  # timed: a fresh-interpreter import
    rec.close(span)
    rec.install()
    try:
        return max((cli.run(argv) for argv in commands), default=0)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
