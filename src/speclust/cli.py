"""Command-line pipelines: two-step clustering, PCA-equivalence verification,
and spectrum diagnostics.

Three subcommands:

    speclust cluster   --input X.csv --graph knn --knn 5 --delta 1.0 --k 2 --out DIR
    speclust pca-equiv --input X.csv --k 2 --out DIR
    speclust eigen     --input X.csv --graph epsilon --eps 0.5 --kernel unit --out DIR

A --config file holds long flags of its subcommand, one `key = value` per
line (`#` comments; `header = true|false|1|0`).  Its lines become flags
parsed ahead of the command line's, by the same parser, so they get the
flags' types, choices and defaults, and explicit flags win.  Exit codes:
0 success, 1 validation failure (a bad command line or config file
included), 2 numerical failure, 3 equivalence-check failure.  All artifact
files are byte-identical across runs for the same config and seed;
wall-clock timings go to stdout only, so they never perturb the artifacts.
No other module writes files: `_write_rows` writes the labels, embedding
and eigenvalues, and `_write_report` both reports of every subcommand.

The cluster pipeline picks its path automatically and names the choice in
the report: when the spectrum shows c > 1 zero eigenvalues and the requested
embedding is classical with k = c, the embedding rows are component
indicators and k-means just reads them off (the indicator path); otherwise
the connected-graph path embeds into the requested eigenvector columns.
`cluster` and `eigen` share one spectrum stage: the Laplacian is solved once
and its zero-eigenvalue multiplicity is counted once, at --zero-tol.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cluster import kmeans
from .data import load_csv
from .eigen import ConvergenceError, EigenSystem, eig_rw, eig_symmetric
from .embedding import Embedding, covariance_objective, embed_classical, embed_nonconstant
from .graph import (
    WeightedGraph,
    build_epsilon_graph,
    build_full_graph,
    build_knn_graph,
    connected_components,
)
from .laplacian import (
    LaplacianMatrix,
    laplacian_rw,
    laplacian_sym,
    laplacian_unnormalized,
    zero_eigenvalue_multiplicity,
)
from .pca import pca_equivalence_report

GRAPHS = ("full", "knn", "epsilon")
KERNELS = ("rbf", "shifted_dot", "unit")
LAPLACIANS = ("unnormalized", "sym", "rw")
EMBEDDINGS = ("nonconstant", "classical")

# Lloyd's algorithm can stall in a local optimum when the embedding carries
# eigenvector columns beyond the cluster-indicator directions, so the
# pipeline runs a fixed fan of restarts and keeps the lowest inertia.
# Restart r uses seed cfg.seed + r, so the whole fan is seed-deterministic.
KMEANS_RESTARTS = 10


def _validate(cfg: argparse.Namespace) -> None:
    """The checks between flags; argparse checks each flag's type and choices."""
    for name in ("delta", "eps", "zero_tol"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name.replace('_', '-')} must be finite, got {value}")
    if "k" in cfg and cfg.k < 1:  # eigen has no --k
        raise ValueError(f"k must be at least 1, got {cfg.k}")
    if cfg.kernel == "rbf" and (cfg.delta is None or cfg.delta <= 0.0):
        raise ValueError("the rbf kernel needs --delta > 0")
    if cfg.graph == "epsilon" and (cfg.eps is None or cfg.eps <= 0.0):
        raise ValueError("the epsilon graph needs --eps > 0")
    if cfg.graph == "knn" and (cfg.knn is None or cfg.knn < 1):
        raise ValueError("the knn graph needs --knn >= 1")
    if cfg.graph == "full" and cfg.kernel == "unit":
        raise ValueError("the full graph takes kernel rbf or shifted_dot")
    if cfg.graph == "knn" and cfg.kernel != "rbf":
        raise ValueError("the knn graph uses rbf weights; set --kernel rbf")
    if cfg.graph == "epsilon" and cfg.kernel == "shifted_dot":
        raise ValueError("the epsilon graph takes kernel unit or rbf")
    if cfg.zero_tol <= 0.0:
        raise ValueError(f"zero-tol must be positive, got {cfg.zero_tol}")


class _Spectrum(NamedTuple):
    """What the front of the pipeline computes, once per run."""

    n: int
    graph: WeightedGraph
    component_count: int
    laplacian: LaplacianMatrix
    eigensystem: EigenSystem
    multiplicity: int


def _spectrum(cfg: argparse.Namespace, timer: _Timer) -> _Spectrum:
    """Load, build the graph and Laplacian, solve once, count zeros at cfg.zero_tol."""
    dataset = load_csv(cfg.input_path, has_header=cfg.has_header, delimiter=cfg.delimiter)
    timer.mark("load")

    if cfg.graph == "full":
        g = build_full_graph(dataset, kernel=cfg.kernel, delta=cfg.delta)
    elif cfg.graph == "knn":
        g = build_knn_graph(dataset, cfg.knn, cfg.delta)
    else:
        g = build_epsilon_graph(dataset, cfg.eps, kernel=cfg.kernel, delta=cfg.delta)
    component_count = connected_components(g).component_count
    timer.mark("graph")

    if cfg.laplacian == "unnormalized":
        lap = laplacian_unnormalized(g)
    elif cfg.laplacian == "sym":
        lap = laplacian_sym(g)
    else:
        lap = laplacian_rw(g)
    timer.mark("laplacian")

    es = eig_rw(lap, g.degrees) if cfg.laplacian == "rw" else eig_symmetric(lap.matrix)
    multiplicity = zero_eigenvalue_multiplicity(es.eigenvalues, cfg.zero_tol)
    timer.mark("eigensystem")
    return _Spectrum(dataset.n, g, component_count, lap, es, multiplicity)


def _embedding(cfg: argparse.Namespace, spec: _Spectrum) -> Embedding:
    es = spec.eigensystem
    if cfg.embedding == "classical":
        return embed_classical(es, cfg.k)
    # one connectivity gate for every Laplacian, at the spectrum stage's tolerance
    variant = "nonconstant" if cfg.laplacian == "unnormalized" else cfg.laplacian
    return embed_nonconstant(es, cfg.k, tolerance=cfg.zero_tol, variant=variant)


def _write_rows(path: Path, rows, fmt: str = "%.17g", header: str | None = None) -> None:
    """One comma-separated line per row, every value in `fmt`; a 1-D array is one column.

    "%.17g" round-trips IEEE doubles exactly, so every float artifact parses
    back to the bits it was written from.
    """
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    line = ",".join([fmt] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        # one row's values at a time: converting the whole array at once left
        # the process's peak RSS about 0.7 MB higher on 240 x 40 embeddings
        for row in rows:
            fh.write(line % tuple(row.tolist()))


def _write_report(report: dict, out_dir: Path) -> None:
    """report.json with sorted keys; report.txt one `key: value` line per entry, in dict order."""
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with open(out_dir / "report.txt", "w", encoding="utf-8") as fh:
        for key, value in report.items():
            if isinstance(value, dict):
                for sub, item in value.items():
                    fh.write(f"{key}.{sub}: {_fmt(item)}\n")
            else:
                fh.write(f"{key}: {_fmt(value)}\n")


def _fmt(value) -> str:
    # lowercase booleans match the json artifact, so one parser reads both
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return ",".join(_fmt(item) for item in value)
    return str(value)


class _Timer:
    def __init__(self):
        self.marks = []
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.marks.append((stage, now - self._last))
        self._last = now

    def dump(self) -> None:
        # stdout only: timings must never enter artifact files, which are
        # required to be byte-identical across runs
        for stage, seconds in self.marks:
            print(f"[time] {stage}: {seconds:.4f} s")


def run_cluster(cfg: argparse.Namespace) -> int:
    """Load, build, embed, cluster; write artifacts only after all stages pass."""
    _validate(cfg)
    timer = _Timer()
    spec = _spectrum(cfg, timer)
    g, lap, es, multiplicity = spec.graph, spec.laplacian, spec.eigensystem, spec.multiplicity

    # with a classical embedding at k = c the columns are component indicators
    indicator_path = (
        multiplicity > 1 and cfg.embedding == "classical" and cfg.k == multiplicity
    )
    emb = _embedding(cfg, spec)
    timer.mark("embedding")

    result = kmeans(emb.coordinates, cfg.k, cfg.seed, restarts=KMEANS_RESTARTS)
    timer.mark("kmeans")

    # the covariance objective at the produced coordinates; rw pairs with the
    # unnormalized trace identity because no substitution makes rw exact
    obj_lap = lap if lap.variant in ("unnormalized", "sym") else laplacian_unnormalized(g)
    objective = covariance_objective(emb, g, obj_lap)
    timer.mark("objective")

    # sorted key order: report.txt lists the entries as the dict holds them
    report = {
        "branch": "indicator" if indicator_path else "connected",
        "component_count": int(spec.component_count),
        "embedding_requested": cfg.embedding,
        "embedding_variant": emb.variant,
        "graph": cfg.graph,
        "k": int(cfg.k),
        "kernel": cfg.kernel,
        "kmeans_inertia": result.inertia,
        "kmeans_iterations": int(result.iterations),
        "kmeans_restarts": int(KMEANS_RESTARTS),
        "laplacian": cfg.laplacian,
        "n": int(spec.n),
        "objective": {
            "constant_term": objective.constant_term,
            "covariance": objective.covariance,
            "identity_gap": objective.identity_gap,
            "laplacian_variant": obj_lap.variant,
            "trace_term": objective.trace_term,
        },
        "seed": int(cfg.seed),
        "zero_multiplicity": int(multiplicity),
    }

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = result.labels
    _write_rows(out / "labels.csv", np.column_stack((np.arange(len(labels)), labels)), "%d",
                header="index,label")
    _write_rows(out / "embedding.csv", emb.coordinates)
    _write_rows(out / "eigenvalues.txt", es.eigenvalues)
    _write_report(report, out)
    timer.mark("write")
    timer.dump()
    print(f"branch {report['branch']}, components {report['component_count']}, wrote artifacts to {out}")
    return 0


def run_pca_equiv(cfg: argparse.Namespace) -> int:
    """Both reduction routes on one dataset; nonzero exit iff they disagree."""
    timer = _Timer()
    dataset = load_csv(cfg.input_path, has_header=cfg.has_header, delimiter=cfg.delimiter)
    timer.mark("load")
    report = pca_equivalence_report(dataset, cfg.k)
    timer.mark("equivalence")

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # EquivalenceReport field order
    _write_report({
        "k": int(report.k),
        "principal_angles": report.principal_angles.tolist(),
        "max_angle": float(report.max_angle),
        "shift_residuals": report.shift_residuals.tolist(),
        "eigengap_at_k": float(report.eigengap_at_k),
        "degenerate_spectrum": bool(report.degenerate_spectrum),
    }, out)
    timer.mark("write")
    timer.dump()

    if report.max_angle > 1e-6 and not report.degenerate_spectrum:
        print(
            f"equivalence FAILED: max principal angle {report.max_angle:.3e} > 1e-6",
            file=sys.stderr,
        )
        return 3
    flag = " (degenerate spectrum: subspace check only)" if report.degenerate_spectrum else ""
    print(f"equivalence holds at k={report.k}: max angle {report.max_angle:.3e}{flag}")
    return 0


def run_eigen_report(cfg: argparse.Namespace) -> int:
    """Full spectrum plus a side-by-side multiplicity / component-count check."""
    _validate(cfg)
    timer = _Timer()
    spec = _spectrum(cfg, timer)
    count = spec.component_count

    agree = spec.multiplicity == count
    # sorted key order, as in run_cluster
    report = {
        "agreement": "AGREE" if agree else "DISAGREE",
        "component_count": int(count),
        "laplacian": cfg.laplacian,
        "n": int(spec.n),
        "zero_multiplicity": int(spec.multiplicity),
        "zero_tol": float(cfg.zero_tol),
    }

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "eigenvalues.txt", spec.eigensystem.eigenvalues)
    _write_report(report, out)
    timer.mark("write")
    timer.dump()
    print(f"zero multiplicity {spec.multiplicity}, components {count}, {report['agreement']}")
    return 0


# field spellings a config file may use for three flags
_CONFIG_ALIASES = {"input-path": "input", "has-header": "header", "output-dir": "out"}


def _config_flags(path, sub: argparse.ArgumentParser) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags of `sub`."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            flag = "--" + _CONFIG_ALIASES.get(key, key)
            action = sub._option_string_actions.get(flag)
            if action is None or flag in ("--config", "--help"):
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            value = value.strip()
            if action.nargs == 0:  # --header takes no value
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(f"{path}:{lineno}: boolean key {key!r} got {value!r}")
                if value.lower() in ("true", "1"):
                    flags.append(flag)
            else:
                flags.append(f"{flag}={value}")
    return flags


def _add_common_flags(sub, with_config: bool = True) -> None:
    sub.add_argument("--input", dest="input_path", help="input CSV of points, one row per point")
    sub.add_argument("--header", dest="has_header", action="store_true",
                     help="first CSV row is column names")
    sub.add_argument("--delimiter", default=",", help="CSV field delimiter (default %(default)s)")
    sub.add_argument("--out", dest="output_dir", default=".", help="artifact directory")
    if with_config:
        sub.add_argument("--config", help="key = value file of long flags; flags override it")


def _add_pipeline_flags(sub) -> None:
    sub.add_argument("--graph", choices=GRAPHS, default="full")
    sub.add_argument("--kernel", choices=KERNELS, default="rbf")
    sub.add_argument("--delta", type=float, help="rbf kernel width")
    sub.add_argument("--eps", type=float, help="epsilon-graph distance threshold")
    sub.add_argument("--knn", type=int, help="neighbors per vertex for the knn graph")
    sub.add_argument("--laplacian", choices=LAPLACIANS, default="unnormalized")
    sub.add_argument("--zero-tol", dest="zero_tol", type=float, default=1e-8,
                     help="relative tolerance for counting zero eigenvalues")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="speclust",
        description="Spectral clustering, spectral embeddings, and the PCA-equivalence check.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_cluster = subparsers.add_parser("cluster", help="two-step spectral clustering")
    _add_common_flags(p_cluster)
    _add_pipeline_flags(p_cluster)
    p_cluster.add_argument("--embedding", choices=EMBEDDINGS, default="nonconstant")
    p_cluster.add_argument("--k", type=int, help="cluster count / embedding dimension")
    p_cluster.add_argument("--seed", type=int, default=0, help="k-means seed")

    p_pca = subparsers.add_parser("pca-equiv", help="verify the spectral/PCA equivalence")
    _add_common_flags(p_pca, with_config=False)
    p_pca.add_argument("--k", type=int, required=True, help="subspace dimension to compare")

    p_eigen = subparsers.add_parser("eigen", help="spectrum and component diagnostics")
    _add_common_flags(p_eigen)
    _add_pipeline_flags(p_eigen)

    argv = sys.argv[1:] if argv is None else list(argv)
    run = {"cluster": run_cluster, "pca-equiv": run_pca_equiv, "eigen": run_eigen_report}
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go right after the subcommand, so the command line's win
            at = argv.index(args.command) + 1
            sub = subparsers.choices[args.command]
            args = parser.parse_args(argv[:at] + _config_flags(args.config, sub) + argv[at:])
        if args.input_path is None:
            raise ValueError("missing required --input")
        if "k" in args and args.k is None:
            raise ValueError("missing required --k")
        return run[args.command](args)
    except SystemExit as exc:
        # argparse exits 2 on a bad command line, but 2 means numerical
        # failure here; --help exits 0 and passes through
        if exc.code == 0:
            raise
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
