"""Command line front end.

Subcommands mirror the library modules:

* ``latconf lattice …`` — discriminant forms, complements, gluing,
  isotropic classification, overlattice enumeration, the index formula.
* ``latconf config …`` — Plücker coordinates, stability, canonical
  forms, the Cremona involution, node reports, group orbits.
* ``latconf jacobian …`` — graded dimensions and the period-map rank.
* ``latconf verify`` — the self-verification registry.

All structured inputs are files or inline JSON; every output is a JSON
document on standard output with rational values rendered as exact
``"p/q"`` strings.  Exit status: 0 on success, 1 on domain errors
(with a machine-readable ``{"error": {...}}`` document) or when the
reader closes standard output, 2 on usage errors (with an error
document of kind ``UsageError``, argparse's errors included); only
``--help`` and ``--version`` print text.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import permutations

from . import __version__
from .configs import (
    CHAR_LABELS,
    ConfigMatrix,
    act_gl3f2,
    act_wreath,
    canonical_form,
    canonical_key,
    cremona,
    dependent_columns,
    drop_line,
    gale_dual,
    gl3f2_elements,
    node_report,
    plucker,
    s4_to_wreath,
    stability,
    wreath_elements,
)
from .errors import LatconfError
from .jacobian import period_map, period_maps
from .lattices import (
    Lattice,
    Sublattice,
    enumerate_integral_overlattices,
    index_exponent,
    orthogonal_complement,
    overlattice_from_isotropic,
    parse_lattice_name,
)
from .isotropic import classify_isotropic_plane, classify_isotropic_vector
from .matrices import Matrix, frac_to_str
from .verify import random_system, registry_ids, run_verify


class UsageError(Exception):
    """Malformed command line input (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, in subcommands too, raise
    UsageError: one JSON error document instead of usage text."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Input parsing helpers
# ---------------------------------------------------------------------------


def _load_json(spec: str):
    """Load a JSON document from a file path, standard input (``-``) or
    an inline string."""
    try:
        if spec == "-":
            return json.load(sys.stdin)
        if os.path.exists(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(spec)
    except (OSError, ValueError) as exc:  # ValueError: JSON or UTF-8 errors
        raise UsageError(
            f"not a readable JSON file, '-' or valid inline JSON: {spec!r} ({exc})"
        ) from exc


SERIALIZED_FORMS = (
    'a matrix is {"rows", "cols", "entries"}, a Gram {"gram": matrix}, '
    'a configuration {"matrix": matrix, "labels"}'
)


def _number_rows(rows, what: str) -> list:
    """``rows`` as lists of Fractions; a row that is not a JSON array (a
    string is not one) or an entry that is not a number or a numeric
    string (``true`` is not one) is a usage error."""
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and {*map(type, row)} <= {int, float, str} for row in rows):
        raise UsageError(f"{what} must be JSON arrays of numbers or numeric strings")
    try:
        return [[Fraction(str(x)) for x in row] for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed {what} entry: {exc}") from exc


def _deserialize(from_json, obj, key=None):
    """``from_json(obj)`` once ``_number_rows`` passes its matrix ``obj[key]``
    (or ``obj``); a missing key or malformed value is a usage error."""
    try:
        _number_rows((obj[key] if key else obj)["entries"], "matrix")
        return from_json(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(
            f"malformed serialized input ({type(exc).__name__}: {exc}); "
            + SERIALIZED_FORMS
        ) from exc


def _matrix_from(obj) -> Matrix:
    """Matrix from serialized form or a plain nested list."""
    if isinstance(obj, dict) and "entries" in obj:
        return _deserialize(Matrix.from_json, obj)
    if isinstance(obj, list):
        return Matrix(_number_rows(obj, "matrix"))
    raise UsageError("expected a matrix: nested list or serialized form")


def _lattice_from(args) -> Lattice:
    if getattr(args, "name", None):
        return parse_lattice_name(args.name)
    if getattr(args, "gram", None):
        obj = _load_json(args.gram)
        if isinstance(obj, dict) and "gram" in obj:
            return _deserialize(Lattice.from_json, obj, "gram")
        return Lattice(_matrix_from(obj))
    raise UsageError("provide --name or --gram")


def _config_from(spec: str) -> ConfigMatrix:
    obj = _load_json(spec)
    if isinstance(obj, dict) and "matrix" in obj:
        return _deserialize(ConfigMatrix.from_json, obj, "matrix")
    return ConfigMatrix(_matrix_from(obj))


def _system_from(spec: str) -> Matrix:
    return _matrix_from(_load_json(spec))


def _emit(obj) -> int:
    json.dump(obj, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# lattice subcommands
# ---------------------------------------------------------------------------


def cmd_lattice_disc_form(args) -> int:
    l = _lattice_from(args)
    form = l.discriminant_form()
    return _emit(form.to_json())


def cmd_lattice_complement(args) -> int:
    l = _lattice_from(args)
    basis = _matrix_from(_load_json(args.basis))
    comp = orthogonal_complement(Sublattice(l, basis))
    lat = comp.as_lattice()
    return _emit({
        "basis": comp.basis.to_json(),
        "gram": lat.gram.to_json(),
        "signature": list(lat.signature()),
        "parity": lat.parity(),
        "discriminant": frac_to_str(lat.det()),
    })


def cmd_lattice_glue(args) -> int:
    l = _lattice_from(args)
    gens = _number_rows(_load_json(args.gens), "--gens")
    result = overlattice_from_isotropic(
        l, gens, check_quadratic=args.quadratic
    )
    return _emit({
        "index": result.index,
        "basis": result.basis.to_json(),
        "gram": result.lattice.gram.to_json(),
        "parity": result.lattice.parity(),
        "discriminant": frac_to_str(result.lattice.det()),
    })


def cmd_lattice_classify_isotropic(args) -> int:
    if (args.vector is None) == (args.plane is None):
        raise UsageError("provide exactly one of --vector or --plane")
    if args.vector is not None:
        (coords,) = _number_rows([_load_json(args.vector)], "--vector")
        cls = classify_isotropic_vector(None, coords)
    else:
        basis = _matrix_from(_load_json(args.plane))
        cls = classify_isotropic_plane(None, basis)
    return _emit({
        "kind": cls.kind,
        "certificate_gram": cls.certificate.to_json(),
    })


def cmd_lattice_overlattices(args) -> int:
    l = _lattice_from(args)
    infos = enumerate_integral_overlattices(l)
    return _emit({
        "count": len(infos),
        "overlattices": [
            {
                "index": info.index,
                "subgroup_order": len(info.subgroup),
                "parity": info.parity,
                "unimodular": info.unimodular,
                "gram": info.lattice.gram.to_json(),
            }
            for info in infos
        ],
    })


def cmd_lattice_index_formula(args) -> int:
    exponent = index_exponent(args.ell2_base, args.ell2_cover, args.rho, args.kappa_trivial)
    return _emit({"exponent": exponent})


# ---------------------------------------------------------------------------
# config subcommands
# ---------------------------------------------------------------------------


def cmd_config_plucker(args) -> int:
    c = _config_from(args.config)
    coords = plucker(c)
    return _emit({
        "minors": {
            ",".join(str(i) for i in key): frac_to_str(value)
            for key, value in sorted(coords.items())
        }
    })


def cmd_config_stability(args) -> int:
    c = _config_from(args.config)
    return _emit(stability(c).to_json())


def cmd_config_canonical(args) -> int:
    c = _config_from(args.config)
    normal, frame = canonical_form(c)
    return _emit({
        "frame": list(frame),
        "config": normal.to_json(),
    })


def cmd_config_cremona(args) -> int:
    c = _config_from(args.config)
    return _emit(cremona(c).to_json())


def cmd_config_nodes(args) -> int:
    c = _config_from(args.config)
    report = node_report(c, args.kappa)
    return _emit({
        "counts": report["counts"],
        "triples": [
            {
                "columns": list(entry["triple"]),
                "labels": list(entry["labels"]),
                "kind": entry["kind"],
            }
            for entry in report["triples"]
        ],
    })


def cmd_config_from_quadrics(args) -> int:
    g = gale_dual(_system_from(args.system))[1]
    witness = dependent_columns(g)
    return _emit({
        "config": ConfigMatrix(g, CHAR_LABELS).to_json(),
        "smooth": witness is None,
        "dependent_columns": None if witness is None else list(witness),
    })


def cmd_config_drop(args) -> int:
    c = _config_from(args.config)
    return _emit(drop_line(c, args.kappa).to_json())


def cmd_config_orbit(args) -> int:
    c = _config_from(args.config)
    if args.group == "w3":
        elements = wreath_elements()
        action = act_wreath
    elif args.group == "s4":
        elements = [s4_to_wreath(s) for s in permutations(range(1, 5))]
        action = act_wreath
    else:  # glf2
        elements = gl3f2_elements()
        action = act_gl3f2
    keys = {canonical_key(action(el, c)) for el in elements}
    return _emit({
        "group": args.group,
        "group_order": len(elements),
        "orbit_size": len(keys),
    })


# ---------------------------------------------------------------------------
# jacobian subcommands
# ---------------------------------------------------------------------------


def cmd_jacobian_dims(args) -> int:
    q = _system_from(args.system)
    if args.kappa is not None:
        pm = period_map(q, args.kappa)
        return _emit({
            "dim_R10": pm.source.dimension,
            "kappa": args.kappa,
            "dim_target": [pm.target.dimension, pm.second_dim],
        })
    maps = period_maps(q)
    return _emit({
        "dim_R10": maps[1].source.dimension,
        "dim_target_by_kappa": {
            str(kappa): [pm.target.dimension, pm.second_dim]
            for kappa, pm in maps.items()
        },
    })


def cmd_jacobian_period_rank(args) -> int:
    if args.system is not None:
        q = _system_from(args.system)
    else:
        q = random_system(random.Random(args.seed))
    pm = period_map(q, args.kappa)
    return _emit(pm.to_json())


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.filter and not any(cid.startswith(args.filter) for cid in registry_ids()):
        raise UsageError(f"--filter {args.filter!r} matches no check id")
    try:  # before any check runs, so a bad path costs nothing
        out = open(args.json, "w", encoding="utf-8") if args.json else nullcontext()
    except OSError as exc:
        raise UsageError(f"cannot write --json: {exc}") from exc
    with out as fh:
        report = run_verify(seed=args.seed, id_filter=args.filter)
        if fh is not None:
            json.dump(_timed_json(report), fh, indent=2)
            fh.write("\n")
    print(report.render_text())
    return 0 if report.ok else 1


def _timed_json(report) -> dict:
    """``report.to_json()`` plus the elapsed seconds of the report and of
    each check, which vary between runs and so stay out of ``to_json``."""
    doc = report.to_json()
    doc["elapsed_seconds"] = report.elapsed_seconds
    for entry, check in zip(doc["checks"], report.checks):
        entry["elapsed_seconds"] = check.elapsed_seconds
    return doc


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_lattice_source(p):
    p.add_argument(
        "--name",
        help="lattice expression, e.g. 'D6', 'Z(2,4)', 'H(1/2)+E10*-1', 'L'",
    )
    p.add_argument(
        "--gram",
        help="Gram matrix as a file or inline JSON (nested list or "
        "serialized form)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latconf",
        description="Exact arithmetic for quadratic lattices, line "
        "configurations, and Jacobian-ring period ranks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="quadratic lattice operations")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)

    p = lat_sub.add_parser("disc-form", help="discriminant form")
    _add_lattice_source(p)
    p.set_defaults(fn=cmd_lattice_disc_form)

    p = lat_sub.add_parser("complement", help="orthogonal complement")
    _add_lattice_source(p)
    p.add_argument("--basis", required=True,
                   help="sublattice basis rows (file or inline JSON)")
    p.set_defaults(fn=cmd_lattice_complement)

    p = lat_sub.add_parser("glue", help="overlattice from isotropic subgroup")
    _add_lattice_source(p)
    p.add_argument("--gens", required=True,
                   help="generator coefficient tuples (file or inline JSON)")
    p.add_argument("--quadratic", action="store_true",
                   help="require quadratic (even) isotropy")
    p.set_defaults(fn=cmd_lattice_glue)

    p = lat_sub.add_parser("classify-isotropic",
                           help="classify an isotropic vector or plane "
                           "of L = diag(2,2,-1,-1,-1,-1)")
    p.add_argument("--vector", help="coordinates (file or inline JSON)")
    p.add_argument("--plane", help="2-row basis (file or inline JSON)")
    p.set_defaults(fn=cmd_lattice_classify_isotropic)

    p = lat_sub.add_parser("overlattices",
                           help="enumerate integral overlattices")
    _add_lattice_source(p)
    p.set_defaults(fn=cmd_lattice_overlattices)

    p = lat_sub.add_parser("index-formula", help="two-adic index exponent")
    p.add_argument("--ell2-base", type=int, required=True)
    p.add_argument("--ell2-cover", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--kappa-trivial", action="store_true")
    p.set_defaults(fn=cmd_lattice_index_formula)

    cfg = sub.add_parser("config", help="line configuration operations")
    cfg_sub = cfg.add_subparsers(dest="subcommand", required=True)

    for name, fn, helptext in (
        ("plucker", cmd_config_plucker, "3x3 column minors"),
        ("stability", cmd_config_stability, "GIT stability report"),
        ("canonical", cmd_config_canonical, "canonical form and frame"),
        ("cremona", cmd_config_cremona, "the Cremona involution"),
    ):
        p = cfg_sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True,
                       help="configuration (file or inline JSON)")
        p.set_defaults(fn=fn)

    p = cfg_sub.add_parser("nodes", help="classify concurrent triples")
    p.add_argument("--config", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(fn=cmd_config_nodes)

    p = cfg_sub.add_parser("from-quadrics",
                           help="seven-line configuration of a system")
    p.add_argument("--system", required=True,
                   help="4x7 system (file or inline JSON)")
    p.set_defaults(fn=cmd_config_from_quadrics)

    p = cfg_sub.add_parser("drop", help="drop a labeled line and regroup")
    p.add_argument("--config", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(fn=cmd_config_drop)

    p = cfg_sub.add_parser("orbit", help="orbit under a finite group")
    p.add_argument("--config", required=True)
    p.add_argument("--group", required=True, choices=("w3", "s4", "glf2"))
    p.set_defaults(fn=cmd_config_orbit)

    jac = sub.add_parser("jacobian", help="Jacobian-ring computations")
    jac_sub = jac.add_subparsers(dest="subcommand", required=True)

    p = jac_sub.add_parser("dims", help="graded piece dimensions")
    p.add_argument("--system", required=True)
    p.add_argument("--kappa", type=int)
    p.set_defaults(fn=cmd_jacobian_dims)

    p = jac_sub.add_parser("period-rank", help="period map rank and kernel")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--system", help="4x7 system (file or inline JSON)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for a random smooth system when --system "
                   "is omitted")
    p.set_defaults(fn=cmd_jacobian_period_rank)

    p = sub.add_parser("verify", help="run the verification registry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", help="only run checks whose id starts with "
                   "this prefix; known ids: " + ", ".join(registry_ids()))
    p.add_argument("--json", help="also write the report as JSON to this file")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so that the
        # interpreter's exit flush is silent too (Python signal docs).
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # stdout has no file descriptor
            pass
        return 1
    return code


def _main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help and --version print their text
        return int(exc.code or 0)
    except UsageError as exc:
        json.dump({"error": {"kind": "UsageError", "message": str(exc)}},
                  sys.stdout)
        sys.stdout.write("\n")
        return 2
    except LatconfError as exc:
        json.dump(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}},
            sys.stdout,
        )
        sys.stdout.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
