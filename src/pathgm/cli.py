"""Command line front end.

Six subcommands: ``score``, ``learn-tree``, ``learn-path``, ``reduce``,
``verify``, ``decide-hp``. Every command writes one JSON report to stdout
(or ``--output``) containing the tool version, the resolved inputs with
sha256 digests, and a command-specific payload. Reruns on identical inputs
produce byte-identical reports.

Exit codes: 0 success, 1 domain error (valid files, invalid computation)
or out of memory, 2 malformed input files or unusable command lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, Optional, Sequence, Tuple

from . import __version__
from .dataset import load_dataset, write_dataset
from .errors import FormatError, PathgmError
from .path_learn import EXACT_DEFAULT_LIMIT, solve_path_exact, solve_path_heuristic
from .reduction import decide_hp, generate_reduction, verify_reduction
from .scoring import Criterion, score_structure
from .structures import Branching, PathStructure, load_graph
from .tree_learn import build_weights, learn_optimal_branching, learn_optimal_spanning_tree

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgm",
        description=(
            "Score, learn, and stress-test path and tree structures over "
            "discrete data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_criterion: str) -> None:
        p.add_argument(
            "--criterion",
            choices=["ml", "mdl", "bayes", "all"],
            default=default_criterion,
            help="scoring criterion (default: %(default)s)",
        )
        p.add_argument(
            "--output",
            help="write the JSON report here instead of stdout",
        )

    p = sub.add_parser("score", help="score a fixed structure on a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument(
        "--structure",
        required=True,
        help=(
            "inline path 'path:2,0,1' or a JSON file with "
            '{"order": [...]} or {"parent": [...]}'
        ),
    )
    add_common(p, "ml")

    p = sub.add_parser("learn-tree", help="learn the optimal tree structure")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument(
        "--connected",
        action="store_true",
        help="require one connected tree instead of the best forest",
    )
    add_common(p, "ml")

    p = sub.add_parser("learn-path", help="learn the optimal path structure")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument(
        "--method",
        choices=["exact", "heuristic"],
        default="exact",
        help="exact refuses instances above --exact-limit "
        "(default: %(default)s)",
    )
    p.add_argument("--exact-limit", type=int, default=EXACT_DEFAULT_LIMIT)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, "ml")

    p = sub.add_parser(
        "reduce", help="encode a graph as a path-learning dataset"
    )
    p.add_argument("--graph", required=True, help="graph file ('n m' header)")
    p.add_argument(
        "--data-out", required=True, help="where to write the dataset CSV"
    )
    p.add_argument("--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser(
        "verify", help="check the reduction properties of a dataset"
    )
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--graph", required=True, help="graph file")
    add_common(p, "all")

    p = sub.add_parser(
        "decide-hp",
        help="decide Hamiltonian-path existence via optimal path learning",
    )
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--exact-limit", type=int, default=EXACT_DEFAULT_LIMIT)
    add_common(p, "all")

    return parser


def _criteria(ns: argparse.Namespace) -> Tuple[Criterion, ...]:
    if ns.criterion == "all":
        return tuple(Criterion)
    return (Criterion(ns.criterion),)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_entry(path: str) -> Dict[str, str]:
    return {"path": path, "sha256": _sha256(path)}


def _load_structure(source: str):
    """Inline 'path:...' order or a JSON file naming an order/parent map."""
    if source.startswith("path:"):
        body = source[len("path:"):]
        try:
            order = tuple(int(cell) for cell in body.split(","))
        except ValueError:
            raise FormatError(f"bad inline path structure {source!r}")
        return PathStructure(order), None
    try:
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise FormatError(f"{source}: expected a JSON object")
    for key, kind in (("order", PathStructure), ("parent", Branching)):
        if key in doc:
            try:
                return kind(tuple(doc[key])), source
            except (TypeError, ValueError):
                raise FormatError(
                    f"{source}: {key!r} must be a list of vertex indices"
                )
    raise FormatError(f"{source}: structure JSON needs 'order' or 'parent'")


def _structure_echo(structure) -> dict:
    if isinstance(structure, PathStructure):
        return {"type": "path", "order": list(structure.order)}
    return {"type": "branching", "parent": list(structure.parent)}


def _run_score(ns: argparse.Namespace) -> dict:
    data = load_dataset(ns.data)
    structure, structure_file = _load_structure(ns.structure)
    inputs = {"data": _input_entry(ns.data)}
    if structure_file is not None:
        inputs["structure"] = _input_entry(structure_file)
    parent_sets = structure.parent_sets()
    reports = []
    for criterion in _criteria(ns):
        total = score_structure(criterion, data, parent_sets)
        reports.append(
            {
                "criterion": criterion.value,
                "score": total.value,
                "local_scores": list(total.local_scores),
            }
        )
    return {
        "inputs": inputs,
        "structure": _structure_echo(structure),
        "reports": reports,
    }


def _run_learn_tree(ns: argparse.Namespace) -> dict:
    data = load_dataset(ns.data)
    reports = []
    for criterion in _criteria(ns):
        weights = build_weights(criterion, data)
        if ns.connected:
            tree, score = learn_optimal_spanning_tree(weights)
        else:
            tree, score = learn_optimal_branching(weights)
        reports.append(
            {
                "criterion": criterion.value,
                "connected": ns.connected,
                "parent": list(tree.parent),
                "roots": list(tree.roots),
                "score": score,
            }
        )
    return {"inputs": {"data": _input_entry(ns.data)}, "reports": reports}


def _run_learn_path(ns: argparse.Namespace) -> dict:
    if ns.method == "heuristic" and ns.restarts < 1:
        raise FormatError(f"--restarts must be at least 1, got {ns.restarts}")
    data = load_dataset(ns.data)
    reports = []
    for criterion in _criteria(ns):
        weights = build_weights(criterion, data)
        if ns.method == "exact":
            result = solve_path_exact(weights, limit=ns.exact_limit)
        else:
            result = solve_path_heuristic(
                weights, restarts=ns.restarts, seed=ns.seed
            )
        reports.append(
            {
                "criterion": criterion.value,
                "method": ns.method,
                "order": list(result.best_path.order),
                "score": result.best_score,
                "upper_bound": result.upper_bound,
                "gap": result.gap,
                "exact": result.exact,
            }
        )
    return {"inputs": {"data": _input_entry(ns.data)}, "reports": reports}


def _run_reduce(ns: argparse.Namespace) -> dict:
    g = load_graph(ns.graph)
    data = generate_reduction(g)
    write_dataset(data, ns.data_out)
    return {
        "inputs": {"graph": _input_entry(ns.graph)},
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "variables": data.num_variables,
        "cases": data.num_cases,
        "dataset": _input_entry(ns.data_out),
    }


def _run_verify(ns: argparse.Namespace) -> dict:
    data = load_dataset(ns.data)
    g = load_graph(ns.graph)
    reports = []
    for criterion in _criteria(ns):
        report = verify_reduction(data, g, criterion)
        entry = report.to_json_dict()
        entry["separation"] = report.separation
        entry["count_table_ok"] = report.count_table_ok
        reports.append(entry)
    return {
        "inputs": {
            "data": _input_entry(ns.data),
            "graph": _input_entry(ns.graph),
        },
        "reports": reports,
    }


def _run_decide_hp(ns: argparse.Namespace) -> dict:
    g = load_graph(ns.graph)
    reports = []
    for criterion in _criteria(ns):
        decision = decide_hp(g, criterion, exact_limit=ns.exact_limit)
        entry = decision.report.to_json_dict()
        entry["decision"] = "yes" if decision.has_path else "no"
        entry["witness"] = (
            None if decision.witness is None else list(decision.witness)
        )
        entry["optimal_score"] = (
            decision.search.best_score if decision.search is not None else None
        )
        reports.append(entry)
    return {"inputs": {"graph": _input_entry(ns.graph)}, "reports": reports}


_HANDLERS = {
    "score": _run_score,
    "learn-tree": _run_learn_tree,
    "learn-path": _run_learn_path,
    "reduce": _run_reduce,
    "verify": _run_verify,
    "decide-hp": _run_decide_hp,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = _HANDLERS[ns.command](ns)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PathgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    document = {"tool": "pathgm", "version": __version__, "command": ns.command}
    document.update(payload)
    text = json.dumps(document, indent=2) + "\n"
    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main_entry() -> None:
    sys.exit(main())
