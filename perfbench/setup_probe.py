"""One fresh-interpreter set-up, timed from inside: the import every CLI
invocation pays, generating and loading the run configs, and one small fixed
warm-up op.  ``run.py`` times the whole child process from outside and uses
the printed parts only to break that figure down.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload, seed, workdir):
    import delayheat.cli
    from delayheat.config import load_config

    t1 = time.perf_counter()
    sys.path.insert(0, HERE)
    import gen

    for name, text in gen.generate(workload, int(seed)):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        load_config(path)
    t2 = time.perf_counter()

    warm = os.path.join(workdir, "warmup.json")
    with open(warm, "w", encoding="utf-8") as handle:
        handle.write(gen.warmup_config(workload))
    argv = gen.warmup_argv(workload, warm, workdir)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = delayheat.cli.main(argv)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - T0, "configs_s": t2 - t1,
                      "warmup_s": t3 - t2, "warmup_code": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
