"""Child entry of one benchmark operation.

    python3 bench/shim.py RESULT_JSON OP_ID TRACE [retrobio CLI arguments...]

Calls ``retrobio.cli.main(argv)``, the call ``python -m retrobio.cli`` makes,
and writes RESULT_JSON: timestamps, the child's own peak RSS and, with TRACE
1, the spans of the wrappers installed around the call. The whole call is one
``cli.<command>`` span.

The peak RSS is read here, from VmHWM, because the parent cannot get it: on
Linux a child's ``ru_maxrss`` keeps the parent's resident size from before
exec. With no CLI arguments the shim only imports retrobio (and, traced,
installs and removes the wrappers): the start-up that no span can cover.
"""

import resource
import sys
import time


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    enter = time.monotonic()
    result_path, op, traced, cli_argv = argv[0], int(argv[1]), argv[2] == "1", argv[3:]

    import retrobio.cli

    from tracer import Tracer

    tracer = Tracer(op)
    if traced:
        tracer.install()
    code = 0
    try:
        if cli_argv and traced:
            code = tracer.span(f"cli.{cli_argv[0]}", retrobio.cli.main, cli_argv)
        elif cli_argv:
            code = retrobio.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(
            result_path, enter=enter, dump_start=time.monotonic(), peak_rss_kb=peak_rss_kb()
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
