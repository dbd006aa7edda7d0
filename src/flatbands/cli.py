"""Command-line front end.

Subcommands map one-to-one onto the analysis layers: `analyze` (exact
flat bands of one labeling), `generic` (randomized unanimity decision),
`polytope` (generic support, vertical faces, witnesses), `verify-theorem`
(randomized dual-oracle sweep), and `bands` (numeric band sampling with
CSV output).  Reports are deterministic for a fixed input file, flag set,
and seed; `--json` switches the same report to machine-readable form.

Exit codes: 0 success / no flat band, 2 input error, 3 internal error (a
broken invariant, reported in one line), 10 flat band found
(or, for the sweep, an oracle disagreement), 11 inconsistent random
trials (rerun with another seed), 141 stdout closed before the report
was written (as in `| head`; nothing goes to stderr).  A closed stderr
changes no exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .bands import (check_grid, flat_energy_presence, numeric_flat_flags, sample_bands,
                    write_csv)
from .flatband import (FlatBandReport, InvariantError, flat_bands,
                       generic_flat_band_decision, settled_verdict)
from .floquet import FloquetMatrix, PencilTemplate, dispersion_polynomial
from .graph import (Labeling, PeriodicGraph, find_support_zero_component,
                    has_support_zero_domain)
from .graphio import (GraphFormatError, GraphSpec, graph_to_document,
                      load_graph_file, _rational_out)
from .laurent import LaurentPoly, format_poly, format_unipoly
from .polytope import (facial_independence_witness, generic_support,
                       is_vertical_segment, vertical_faces)
from .sampling import (random_labeling, random_periodic_graph, rng_for,
                       tame_real_labeling)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_FLAT_BAND = 10
EXIT_INCONSISTENT = 11
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer cut off by `head`


# ---------------------------------------------------------------------------
# report plumbing


def _render(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            label = str(key).replace("_", " ")
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{label}:")
                lines.extend(_render(item, indent + 1))
            else:
                shown = item if not isinstance(item, (dict, list)) else "(none)"
                lines.append(f"{pad}{label}: {shown}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, list) and not any(isinstance(x, (dict, list)) for x in item):
                lines.append(f"{pad}- [{', '.join(str(x) for x in item)}]")
            elif isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render(report)))


def _edge_label(spec_ids, edge) -> str:
    i, j, a = edge
    return f"{spec_ids[i]}~{spec_ids[j]}@{list(a)}"


def _graph_section(spec: GraphSpec) -> dict:
    return {
        "dimension": spec.graph.dimension,
        "orbits": list(spec.orbit_ids),
        "edge_classes": [_edge_label(spec.orbit_ids, e) for e in spec.graph.sorted_edges()],
    }


def _labeling_section(spec: GraphSpec, labeling: Labeling) -> dict:
    return {
        "potentials": {
            spec.orbit_ids[v]: _rational_out(labeling.potentials[v])
            for v in range(spec.graph.num_orbits)
        },
        "weights": {
            _edge_label(spec.orbit_ids, e): _rational_out(labeling.weights[e])
            for e in spec.graph.sorted_edges()
        },
    }


def _flatband_section(report: FlatBandReport) -> dict:
    return {
        "polynomial": format_unipoly(report.flatband_poly),
        "rational_roots": [
            {
                "energy": _rational_out(root),
                "multiplicity": mult,
                "divisibility_verified": ok,
            }
            for (root, mult), ok in zip(report.rational_roots, report.verified)
        ],
        "irreducible_factors": [
            {
                "polynomial": format_unipoly(factor.coefficients),
                "multiplicity": factor.multiplicity,
            }
            for factor in report.irreducible_factors
        ],
        "count_with_multiplicity": report.flat_band_count,
        "flat_band_found": report.has_flat_band,
    }


def resolve_labeling(spec: GraphSpec, mode: str, seed: int, tame: bool = False) -> Labeling:
    """Combine file labels with seeded random draws per the mode.

    ``given`` requires a fully labeled file; ``random`` ignores file
    labels entirely; ``auto`` keeps the given ones and fills the rest.
    A zero weight kept from the file is an input error.  Numeric
    commands pass ``tame`` to keep random labels in a range where
    dispersive bands stay visibly curved.
    """
    if mode != "random":
        for edge in spec.graph.sorted_edges():
            if spec.weights.get(edge) == 0:
                raise GraphFormatError(
                    f"edge {_edge_label(spec.orbit_ids, edge)} has weight 0; "
                    "a zero weight deletes the edge, so leave it out of the file")
    if mode == "given":
        return spec.labeling()
    rng = rng_for(seed, "labels")
    base = (tame_real_labeling if tame else random_labeling)(spec.graph, rng)
    if mode == "random":
        return base
    potentials = [
        spec.potentials.get(v, base.potentials[v])
        for v in range(spec.graph.num_orbits)
    ]
    weights = {
        edge: spec.weights.get(edge, base.weights[edge])
        for edge in spec.graph.edge_classes
    }
    return Labeling(spec.graph, potentials, weights)


def _full_ladder(graph: PeriodicGraph) -> set[tuple[int, ...]]:
    """The support of a refittable pencil: (0, b) for b = 0..n."""
    return {(0,) * graph.dimension + (b,) for b in range(graph.num_orbits + 1)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> dict:
    spec = load_graph_file(args.file)
    labeling = resolve_labeling(spec, args.labels, args.seed)
    matrix = FloquetMatrix(spec.graph, labeling)
    dispersion = matrix.dispersion()
    report = flat_bands(dispersion)
    return {
        "command": "analyze",
        "seed": args.seed,
        "labels_mode": args.labels,
        "graph": _graph_section(spec),
        "labeling": _labeling_section(spec, labeling),
        "floquet_matrix": [
            [format_poly(entry) for entry in row] for row in matrix.matrix.entries
        ],
        "dispersion": format_poly(dispersion),
        "flat_bands": _flatband_section(report),
        "exit_code": EXIT_FLAT_BAND if report.has_flat_band else EXIT_OK,
    }


def cmd_generic(args) -> dict:
    if args.trials < 1:
        raise GraphFormatError("--trials must be at least 1")
    spec = load_graph_file(args.file)
    decision = generic_flat_band_decision(spec.graph, trials=args.trials, seed=args.seed)
    if not decision.consistent:
        exit_code = EXIT_INCONSISTENT
    elif decision.has_flat_band:
        exit_code = EXIT_FLAT_BAND
    else:
        exit_code = EXIT_OK
    return {
        "command": "generic",
        "seed": args.seed,
        "trials": args.trials,
        "graph": _graph_section(spec),
        "per_trial_flat_band_counts": [r.flat_band_count for r in decision.reports],
        "consistent": decision.consistent,
        "generic_flat_band": decision.has_flat_band,
        "exit_code": exit_code,
    }


def cmd_polytope(args) -> dict:
    spec = load_graph_file(args.file)
    graph = spec.graph
    support = generic_support(graph)
    vertical = is_vertical_segment(support)
    document = {
        "command": "polytope",
        "seed": args.seed,
        "graph": _graph_section(spec),
        "generic_support": [list(p) for p in sorted(support)],
        "vertical_segment": vertical,
    }
    if vertical:
        document["vertical_segment_is_full_ladder"] = support == _full_ladder(graph)
        document["faces"] = []
        document["notice"] = "support is a vertical segment; no proper vertical faces"
    elif graph.dimension > 2:
        document["faces"] = []
        document["notice"] = "face enumeration is limited to dimension <= 2; skipped"
    else:
        representative = random_labeling(graph, rng_for(args.seed, "facial"))
        rep_dispersion = dispersion_polynomial(graph, representative)
        faces = []
        for face in vertical_faces(support):
            witness = facial_independence_witness(graph, face, support_points=support)
            facial = LaurentPoly(
                graph.dimension,
                {key: rep_dispersion.coefficient(key) for key in face.members},
            )
            faces.append({
                "normal": list(face.normal),
                "min_value": face.min_value,
                "members": [list(p) for p in sorted(face.members)],
                "facial_polynomial": format_poly(facial),
                "independence_witness": (
                    spec.orbit_ids[witness] if witness is not None else None
                ),
            })
        document["faces"] = faces
        document["facial_note"] = "facial polynomials shown for one representative random labeling"
    document["exit_code"] = EXIT_OK
    return document


def cmd_verify_theorem(args) -> dict:
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError:
        dims = ()
    if not dims or any(d < 1 or d > 2 for d in dims):
        raise GraphFormatError("--dims must list dimensions within 1..2")
    if not 1 <= args.max_orbits <= 4:
        raise GraphFormatError("--max-orbits must be within 1..4")
    if not 0 <= args.max_edges <= 6:
        raise GraphFormatError("--max-edges must be within 0..6")
    if args.count < 0:
        raise GraphFormatError("--count must be nonnegative")
    if args.trials < 1:
        raise GraphFormatError("--trials must be at least 1")

    both_flat = both_none = segment_agree = 0
    disagreements = []
    inconsistent = []
    ladder_failures = []
    for t in range(args.count):
        graph = random_periodic_graph(
            rng_for(args.seed, "graph", t),
            dims=dims, max_orbits=args.max_orbits, max_edges=args.max_edges,
        )
        combinatorial = find_support_zero_component(graph) is not None
        template = PencilTemplate(graph)
        generic_flat = settled_verdict(template, args.trials, f"{args.seed}/alg/{t}")
        if generic_flat is None:
            inconsistent.append({"trial": t, "graph": graph_to_document(graph)})
        elif combinatorial != generic_flat:
            disagreements.append({
                "trial": t,
                "support_zero_component": combinatorial,
                "generic_flat_band": generic_flat,
                "graph": graph_to_document(graph),
            })
        elif generic_flat:
            both_flat += 1
        else:
            both_none += 1

        support = generic_support(template)
        segment = is_vertical_segment(support)
        whole_domain = has_support_zero_domain(graph)
        if segment != whole_domain:
            disagreements.append({
                "trial": t,
                "vertical_segment": segment,
                "support_zero_domain": whole_domain,
                "graph": graph_to_document(graph),
            })
        else:
            segment_agree += 1
            if segment and support != _full_ladder(graph):
                ladder_failures.append({"trial": t, "graph": graph_to_document(graph)})

    if disagreements or ladder_failures:
        exit_code = EXIT_FLAT_BAND
    elif inconsistent:
        exit_code = EXIT_INCONSISTENT
    else:
        exit_code = EXIT_OK
    return {
        "command": "verify-theorem",
        "seed": args.seed,
        "count": args.count,
        "trials_per_graph": args.trials,
        "dims": list(dims),
        "max_orbits": args.max_orbits,
        "max_edges": args.max_edges,
        "oracle_agreement": {
            "both_flat_band": both_flat,
            "both_no_flat_band": both_none,
            "disagreements": disagreements,
            "inconsistent_trials": inconsistent,
        },
        "vertical_segment_agreement": {
            "agreeing": segment_agree,
            "ladder_failures": ladder_failures,
        },
        "exit_code": exit_code,
    }


def _check_float_labels(spec: GraphSpec, labeling: Labeling) -> None:
    """Refuse labels that have no finite float value before sampling."""
    labels = [
        (f"potential of orbit {spec.orbit_ids[v]}", value)
        for v, value in enumerate(labeling.potentials)
    ] + [
        (f"weight of edge {_edge_label(spec.orbit_ids, e)}", labeling.weights[e])
        for e in spec.graph.sorted_edges()
    ]
    for name, value in labels:
        try:
            finite = math.isfinite(float(value))
        except OverflowError:
            finite = False
        if not finite:
            raise GraphFormatError(f"{name} is outside the float range that bands samples in")


def cmd_bands(args) -> dict:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise GraphFormatError("--tol must be a positive finite number")
    spec = load_graph_file(args.file)
    labeling = resolve_labeling(spec, args.labels, args.seed, tame=True)
    _check_float_labels(spec, labeling)
    check_grid(args.resolution, spec.graph.dimension)
    matrix = FloquetMatrix(spec.graph, labeling)
    sample = sample_bands(matrix, resolution=args.resolution)
    # --tol is relative to the largest |band value|, so that the verdicts do
    # not depend on the scale of the labels; the floor keeps a positive
    # tolerance positive at the smallest scales
    scale = max(abs(value) for row in sample.bands for value in row)
    tol = max(args.tol * scale, math.ulp(0.0)) if scale else args.tol
    flags = numeric_flat_flags(sample, tol)
    exact = flat_bands(matrix.dispersion())
    crosschecks = []
    for (root, multiplicity), verified in zip(exact.rational_roots, exact.verified):
        target = float(root)
        matching = [
            j + 1
            for j in range(spec.graph.num_orbits)
            if max(abs(row[j] - target) for row in sample.bands) < tol
        ]
        present = flat_energy_presence(sample, target, multiplicity, tol)
        crosschecks.append({
            "energy": _rational_out(root),
            "multiplicity": multiplicity,
            "matching_bands": matching,
            "present_at_every_grid_point": present,
            "consistent": present and verified,
        })
    document = {
        "command": "bands",
        "seed": args.seed,
        "labels_mode": args.labels,
        "resolution": args.resolution,
        "tolerance": args.tol,
        "graph": _graph_section(spec),
        "labeling": _labeling_section(spec, labeling),
        "grid_points": len(sample.grid),
        "band_flatness": [f"{x:.3e}" for x in sample.flatness],
        "numeric_flat_bands": flags,
        "exact_crosscheck": crosschecks,
        "exit_code": EXIT_OK,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_csv(sample, handle)
        document["csv"] = args.out
    return document


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatbands",
        description="Exact flat-band analysis of periodic graph operators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="graph description (JSON)")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed for every random draw (default 0)")

    p = sub.add_parser("analyze", help="exact flat bands of one labeling")
    add_common(p)
    p.add_argument("--labels", choices=("auto", "given", "random"), default="auto",
                   help="auto: keep file labels, randomize missing ones; "
                        "given: require a fully labeled file; "
                        "random: draw every label from the seed")

    p = sub.add_parser("generic", help="unanimous flat-band decision over random labelings")
    add_common(p)
    p.add_argument("--trials", type=int, default=5, help="number of labelings (default 5)")

    p = sub.add_parser("polytope", help="generic support, vertical faces, witnesses")
    add_common(p)

    p = sub.add_parser(
        "verify-theorem",
        help="random sweep comparing the combinatorial and algebraic flat-band oracles",
        description="Generates random periodic graphs (some intentionally "
                    "disconnected or edge-free) and checks that the "
                    "support-zero-component search agrees with the randomized "
                    "algebraic flat-band decision, plus the vertical-segment "
                    "equivalence for the whole fundamental domain, decided on "
                    "the exact generic support.",
    )
    add_common(p, with_file=False)
    p.add_argument("--count", type=int, default=200, help="graphs to generate (default 200)")
    p.add_argument("--trials", type=int, default=5,
                   help="random labelings per graph for the flat-band decision (default 5)")
    p.add_argument("--dims", default="1,2", help="comma-separated dimensions (default 1,2)")
    p.add_argument("--max-orbits", type=int, default=4, help="orbit cap per graph (default 4)")
    p.add_argument("--max-edges", type=int, default=6, help="edge-class cap (default 6)")

    p = sub.add_parser("bands", help="numeric band functions on the momentum torus")
    add_common(p)
    p.add_argument("--labels", choices=("auto", "given", "random"), default="auto",
                   help="label handling as in analyze; random draws here use a "
                        "tame range suited to floating point")
    p.add_argument("--resolution", type=int, default=16,
                   help="grid points per torus axis (default 16)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="flatness tolerance for flagging bands, relative to the "
                        "largest |band value| of the sample (absolute when every "
                        "value is 0; default 1e-8)")
    p.add_argument("--out", help="write the band grid to this CSV path")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def _drop(stream) -> None:
    """Point a standard stream's file descriptor at devnull once it broke.

    Output still buffered is then flushed into devnull at interpreter
    exit, with no second `BrokenPipeError` (the recipe in the `signal`
    module docs).  A stream with no file descriptor, such as an
    in-process caller's buffer, is left alone.
    """
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # looked up per call, not bound into the parser built once per process
    handler = {
        "analyze": cmd_analyze,
        "generic": cmd_generic,
        "polytope": cmd_polytope,
        "verify-theorem": cmd_verify_theorem,
        "bands": cmd_bands,
    }[args.subcommand]
    try:
        report = handler(args)
        emit(report, args.json)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): nothing is wrong with the
        # input, and there is no one left to tell
        _drop(sys.stdout)
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        # a broken invariant guard or exhausted memory is a bug, reported in
        # one line; any other OSError or ValueError (GraphFormatError) is input
        internal = isinstance(exc, InvariantError) or not isinstance(exc, (OSError, ValueError))
        try:
            sys.stderr.write(f"{'internal' if internal else 'input'} error: "
                             f"{str(exc) or type(exc).__name__}\n")
            sys.stderr.flush()
        except (AttributeError, OSError):  # None when started without fd 2, or no reader
            _drop(sys.stderr)
        return EXIT_INTERNAL_ERROR if internal else EXIT_INPUT_ERROR
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
