"""Command line interface.

Three subcommands operate on a mesh file (or the builtin 16-element
square, ``builtin:paper``):

* ``solve``     one solve, summary to stdout, optional CSV/matrix dumps
* ``converge``  uniform-refinement study, CSV with error ratios
* ``inspect``   mesh statistics, validation, optional topology dump

Exit codes: 0 success, 2 usage error, 3 file/parse/validation error,
4 solver failure.  All CSV output is deterministic: identical inputs
produce byte-identical files.
"""

import argparse
import sys

from .basis import FAMILIES
from .geometry import barycentric_gradients
from .mesh import (MeshError, build_edge_topology, classify_boundary,
                   read_mesh, validate_mesh)
from .problems import BUILTIN_MESHES, PROBLEMS, builtin_mesh, get_problem

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _positive_levels(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("levels must be an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("levels must be at least 1")
    return value


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("tolerance must be a number")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("tolerance must lie in (0, 1)")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdmfem",
        description="Mixed finite element solver for -div(alpha grad u) = f "
                    "on triangular meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh(p):
        p.add_argument("--mesh", required=True,
                       help="mesh file path, or builtin:<name> ({})".format(
                           ", ".join("builtin:" + n
                                     for n in sorted(BUILTIN_MESHES))))

    def add_solve_options(p):
        p.add_argument("--problem", required=True,
                       choices=sorted(PROBLEMS),
                       help="built-in problem to solve")
        p.add_argument("--family", default="bdm1", choices=FAMILIES,
                       help="flux element family (default bdm1)")
        p.add_argument("--tol", default=1e-10, type=_tolerance,
                       help="relative residual tolerance (default 1e-10)")
        p.add_argument("--out", help="write a CSV summary to this path")

    p = sub.add_parser("solve", help="solve once and report")
    add_mesh(p)
    add_solve_options(p)
    p.add_argument("--dump-solution",
                   help="write the raw coefficient vectors as CSV")
    p.add_argument("--dump-matrix",
                   help="write the assembled system in Matrix Market form")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="uniform refinement study")
    add_mesh(p)
    add_solve_options(p)
    p.add_argument("--levels", default=4, type=_positive_levels,
                   help="number of meshes, base included (default 4)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("inspect", help="mesh statistics and validation")
    add_mesh(p)
    p.add_argument("--dump", action="store_true",
                   help="print the edge list, element-to-edge map and "
                        "orientation signs as CSV (1-based)")
    p.set_defaults(func=cmd_inspect)
    return parser


def _load_mesh(spec):
    """Read and validate a mesh, listing each violation on stderr; the
    solvers' own geometry would otherwise meet it first."""
    if spec.startswith("builtin:"):
        mesh = builtin_mesh(spec[len("builtin:"):])
    else:
        mesh = read_mesh(spec)
    violations = validate_mesh(mesh)
    for message in violations:
        print("invalid: {}".format(message), file=sys.stderr)
    if violations:
        raise MeshError("mesh failed validation with {} violation(s)".format(
            len(violations)))
    return mesh


def _format_sci(x):
    return "{:.5e}".format(x)


def cmd_solve(args):
    from . import assembly, bc, norms, solve
    mesh = _load_mesh(args.mesh)
    problem = get_problem(args.problem)
    topo = build_edge_topology(mesh)
    coeffs = barycentric_gradients(mesh)
    solution = solve.solve_problem(mesh, problem, family=args.family,
                                   tol=args.tol, topo=topo, coeffs=coeffs)
    errors = norms.compute_errors(mesh, topo, coeffs, solution, problem)

    print("problem:   {} ({})".format(problem.name, args.family))
    print("mesh:      {} nodes, {} elements, {} edges".format(
        mesh.num_nodes, mesh.num_elements, topo.num_edges))
    print("unknowns:  {} ({} free)".format(solution.num_dof,
                                           solution.num_free))
    print("solver:    direct, residual {:.3e}, {:.3f} s".format(
        solution.residual, solution.solve_time))
    print("err_sigma: {}".format(_format_sci(errors[0])))
    print("err_u:     {}".format(_format_sci(errors[1])))

    if args.out:
        fields = [
            ("problem", problem.name),
            ("family", solution.family),
            ("solver", "direct"),
            ("nodes", mesh.num_nodes),
            ("elements", mesh.num_elements),
            ("edges", topo.num_edges),
            ("dof", solution.num_dof),
            ("free_dof", solution.num_free),
            ("residual", _format_sci(solution.residual)),
            ("err_sigma", _format_sci(errors[0])),
            ("err_u", _format_sci(errors[1])),
        ]
        with open(args.out, "w") as fh:
            fh.write(",".join(name for name, _ in fields) + "\n")
            fh.write(",".join(str(val) for _, val in fields) + "\n")
    if args.dump_solution:
        ne = topo.num_edges
        with open(args.dump_solution, "w") as fh:
            fh.write("block,index,value\n")
            if solution.family == "bdm1":
                blocks = [("flux1", solution.sigma[:ne]),
                          ("flux2", solution.sigma[ne:])]
            else:
                blocks = [("flux", solution.sigma)]
            for name, data in blocks + [("scalar", solution.u)]:
                for k, v in enumerate(data):
                    fh.write("{},{},{:.17e}\n".format(name, k, v))
    if args.dump_matrix:
        inv_alpha = 1.0 / bc._element_alpha(mesh, problem)[1]
        system = assembly.assemble_system(
            assembly.assemble_mass(topo, coeffs, inv_alpha, args.family),
            assembly.assemble_divergence(topo, args.family))
        assembly.write_matrix_market(args.dump_matrix, system)
    return EXIT_OK


def cmd_converge(args):
    from .norms import convergence_study
    mesh = _load_mesh(args.mesh)
    problem = get_problem(args.problem)
    report = convergence_study(problem, mesh, args.levels,
                               family=args.family, tol=args.tol)

    lines = ["h,err_sigma,ratio_sigma,err_u,ratio_u"]
    for row, (rs, ru) in zip(report.rows, report.ratios()):
        lines.append("{:g},{},{},{},{}".format(
            row.h,
            _format_sci(row.err_sigma),
            "" if rs is None else "{:.4f}".format(rs),
            _format_sci(row.err_u),
            "" if ru is None else "{:.4f}".format(ru)))
    csv = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)

    print("problem:  {} ({}), {} level(s)".format(problem.name, args.family,
                                                  args.levels))
    header = "{:>10} {:>9} {:>12} {:>11} {:>12} {:>9}".format(
        "h", "elements", "err_sigma", "ratio", "err_u", "ratio")
    print(header)
    for row, (rs, ru) in zip(report.rows, report.ratios()):
        print("{:>10g} {:>9} {:>12} {:>11} {:>12} {:>9}".format(
            row.h, row.num_elements, _format_sci(row.err_sigma),
            "-" if rs is None else "{:.4f}".format(rs),
            _format_sci(row.err_u),
            "-" if ru is None else "{:.4f}".format(ru)))
    return EXIT_OK


def cmd_inspect(args):
    mesh = _load_mesh(args.mesh)
    topo = build_edge_topology(mesh)
    boundary = classify_boundary(mesh, topo)
    num_boundary = boundary.num_dirichlet + boundary.num_neumann

    print("nodes:          {}".format(mesh.num_nodes))
    print("elements:       {}".format(mesh.num_elements))
    print("edges:          {}".format(topo.num_edges))
    print("boundary edges: {} (dirichlet {}, neumann {})".format(
        num_boundary, boundary.num_dirichlet, boundary.num_neumann))
    print("interior edges: {}".format(topo.num_edges - num_boundary))
    print("validation:     ok")
    if args.dump:
        print("# edges")
        for a, b in topo.edges + 1:
            print("{},{}".format(a, b))
        print("# elem_to_edge")
        for row in topo.elem_to_edge + 1:
            print("{},{},{}".format(*row))
        print("# sign_edge")
        for row in topo.sign_edge:
            print("{},{},{}".format(*row))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # MeshError among them
        print("bdmfem: {}".format(exc), file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        from .solve import SolverError  # raised there, so already loaded
        if not isinstance(exc, SolverError):
            raise
        print("bdmfem: solver failure: {}".format(exc), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
