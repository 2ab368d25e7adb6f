"""One traced `cli` op: run `scpqca.cli.main` in this fresh process with spans on.

Usage: python bench/clitrace.py SPANS_OUT CLI_ARGS...

Records `cli.import` around `import scpqca.cli` and `cli.main` around the
call, with every layer span inside, and writes them to SPANS_OUT as JSON
lines. Stdout and the exit code are the CLI's own.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.op(0, name="cli.process"):
        with tracer.span("cli.import"):
            import scpqca.cli
        tracer.install()
        with tracer.span("cli.main"):
            code = scpqca.cli.main(args)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
