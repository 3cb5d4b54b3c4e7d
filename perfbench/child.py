"""Fresh-interpreter helpers started by ``run.py``.

``child.py setup WORKLOAD SEED WORKDIR`` times one set-up and prints
the seconds.  ``child.py inspect MESH`` is the traced form of
``python -m bdmfem.cli inspect --mesh MESH``: it times ``import bdmfem``
and ``bdmfem.cli.main`` with the calls beneath it, and prints the
command's output and the spans as one JSON line.
"""

import contextlib
import io
import json
import sys

import tracing
import workloads


def setup(name, seed, workdir):
    _, seconds = workloads.timed_setup(name, int(seed), workdir)
    print(seconds)


def inspect(path):
    tracer = tracing.Tracer()
    tracer.begin("cli.import")
    import bdmfem.cli
    tracer.end()
    tracing.install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bdmfem.cli.main(["inspect", "--mesh", path])
    print(json.dumps({"stdout": out.getvalue(), "spans": tracer.spans,
                      "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    sys.exit({"setup": setup, "inspect": inspect}[command](*args))
