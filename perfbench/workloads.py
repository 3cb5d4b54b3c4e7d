"""The benchmark's workloads: set-up, one operation and its check.

Each workload is a class whose constructor is the set-up and whose
``operation`` runs one correctness-checked operation.  A failed check
raises :class:`CheckFailed`.  ``trace`` switches the workload to timed
spans (see ``tracing.py``); the untraced path carries no wrappers.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
TOL = 1e-10
LEVELS = 6


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _close(value, reference, rtol, what):
    if not abs(value - reference) <= rtol * abs(reference):
        raise CheckFailed("{} = {!r}, reference {!r} (rtol {:g})".format(
            what, value, reference, rtol))


def _residual(value):
    if not value <= TOL:
        raise CheckFailed("residual {!r} above {:g}".format(value, TOL))


class SolveLarge:
    """One bdm1 direct solve plus error norms on 65,536 elements."""

    name = "solve-large"

    def __init__(self, bf, seed, workdir):
        from meshgen import paper_mesh
        self.bf = bf
        self.seed = seed
        self.base = paper_mesh(bf, None, LEVELS)
        self.prepare(0)
        self.problem = bf.get_problem("paper-example")
        self.ref = json.loads((HERE / "reference.json").read_text())[self.name]

    def trace(self, tracer):
        tracing.install(tracer)
        self.problem = tracer.problem(self.problem)

    def prepare(self, k):
        """Relabel the mesh afresh for operation `k`.

        The factor time moves by up to 25% between relabellings, so
        each operation of a run draws its own to steady the median.
        """
        from meshgen import relabel
        self.mesh = relabel(self.bf, self.base, [self.seed, k])

    def operation(self):
        bf, mesh, ref = self.bf, self.mesh, self.ref
        topo = bf.build_edge_topology(mesh)
        coeffs = bf.barycentric_gradients(mesh)
        sol = bf.solve_problem(mesh, self.problem, family="bdm1",
                               method="direct", tol=TOL, topo=topo,
                               coeffs=coeffs)
        err_sigma, err_u, _ = bf.compute_errors(mesh, topo, coeffs, sol,
                                                self.problem)
        _residual(sol.residual)
        if sol.num_dof != ref["num_dof"]:
            raise CheckFailed("{} unknowns, expected {}".format(
                sol.num_dof, ref["num_dof"]))
        _close(err_sigma, ref["err_sigma"], ref["rtol_sigma"], "err_sigma")
        _close(err_u, ref["err_u"], ref["rtol_u"], "err_u")


class ConvergeRT0:
    """rt0 convergence studies over six levels, mixed and all-Dirichlet."""

    name = "converge-rt0"

    def __init__(self, bf, seed, workdir):
        self.bf = bf
        self.seed = seed
        self.problems = [bf.get_problem("paper-example"),
                         bf.get_problem("smooth-dirichlet")]
        self.prepare(0)
        self.ref = json.loads((HERE / "reference.json").read_text())[self.name]

    def trace(self, tracer):
        tracing.install(tracer)
        self.problems = [tracer.problem(p) for p in self.problems]

    def prepare(self, k):
        """Relabel the base mesh afresh for operation `k`; the labels
        fix the numbering of every refined level, and with it the fill."""
        from meshgen import all_dirichlet, paper_mesh
        mixed = paper_mesh(self.bf, [self.seed, k], 0)
        self.meshes = [mixed, all_dirichlet(self.bf, mixed)]

    def operation(self):
        for problem, mesh in zip(self.problems, self.meshes):
            report = self.bf.convergence_study(problem, mesh, LEVELS,
                                               family="rt0", method="direct",
                                               tol=TOL)
            if len(report.rows) != LEVELS:
                raise CheckFailed("{} rows, expected {}".format(
                    len(report.rows), LEVELS))
            for row in report.rows:
                _residual(row.residual)
            ratio_sigma, ratio_u = report.ratios()[-1]
            for what, ratio in (("flux", ratio_sigma), ("scalar", ratio_u)):
                _close(ratio, self.ref["ratio"], self.ref["ratio_rtol"],
                       "{} {} ratio".format(problem.name, what))


class CliInspect:
    """A fresh ``python -m bdmfem.cli inspect`` on the level-6 mesh file."""

    name = "cli-inspect"

    def __init__(self, bf, seed, workdir):
        from meshgen import paper_mesh
        mesh = paper_mesh(bf, seed, LEVELS)
        self.path = str(Path(workdir) / "inspect-{}.mesh".format(seed))
        bf.write_mesh(mesh, self.path)
        # Euler's formula for a triangulated disk gives the edge count
        # without the program's own topology code
        self.expected = {"nodes": mesh.num_nodes,
                         "elements": mesh.num_elements,
                         "edges": mesh.num_nodes + mesh.num_elements - 1}
        self.tracer = None

    def trace(self, tracer):
        self.tracer = tracer

    def operation(self):
        """Run the command; return the child's peak RSS in KiB."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bdmfem.cli", "inspect", "--mesh",
                   self.path]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "inspect",
                   self.path]
        # stderr goes to a file: two pipes read in turn can deadlock
        with open(self.path + ".stderr", "w+") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    text=True)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                raise CheckFailed("exit {}: {}".format(
                    proc.returncode, err.read().strip()[-500:]))
        if self.tracer is not None:
            child = json.loads(out.splitlines()[-1])
            self.tracer.merge(child["spans"], child["counts"])
            out = child["stdout"]
        self.check(out)
        return usage.ru_maxrss

    def check(self, out):
        fields = dict(line.split(":", 1) for line in out.splitlines()
                      if ":" in line)
        for key, value in self.expected.items():
            got = fields.get(key, "").strip()
            if got != str(value):
                raise CheckFailed("{}: got {!r}, expected {}".format(
                    key, got, value))
        if fields.get("validation", "").strip() != "ok":
            raise CheckFailed("mesh not reported valid")


WORKLOADS = {w.name: w for w in (SolveLarge, ConvergeRT0, CliInspect)}


def timed_setup(name, seed, workdir):
    """Import ``bdmfem`` and set up a workload; return both and seconds.

    The import happens here so that it is part of the set-up time.
    """
    start = time.perf_counter()
    import bdmfem
    workload = WORKLOADS[name](bdmfem, seed, workdir)
    return workload, time.perf_counter() - start
