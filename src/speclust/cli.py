"""Command-line pipelines: two-step clustering, PCA-equivalence verification,
and spectrum diagnostics.

Three subcommands:

    speclust cluster   --input X.csv --graph knn --knn 5 --delta 1.0 --k 2 --out DIR
    speclust pca-equiv --input X.csv --k 2 --out DIR
    speclust eigen     --input X.csv --graph epsilon --eps 0.5 --kernel unit --out DIR

Flags may also come from a key=value config file (--config); explicit flags
win.  Exit codes: 0 success, 1 validation failure (a bad command line
included), 2 numerical failure, 3 equivalence-check failure.  All artifact
files are byte-identical across runs for the same config and seed;
wall-clock timings go to stdout only, so they never perturb the artifacts.

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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

from .cluster import kmeans, write_labels
from .data import load_csv
from .eigen import ConvergenceError, EigenSystem, eig_rw, eig_symmetric
from .embedding import (
    Embedding,
    covariance_objective,
    embed_classical,
    embed_nonconstant,
    embed_normalized,
    write_embedding,
)
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
from .pca import pca_equivalence_report, write_equivalence_report

GRAPHS = ("full", "knn", "epsilon")
KERNELS = ("rbf", "shifted_dot", "unit")
LAPLACIANS = ("unnormalized", "sym", "rw")
EMBEDDINGS = ("nonconstant", "classical")

# Lloyd's algorithm can stall in a local optimum when the embedding carries
# eigenvector columns beyond the cluster-indicator directions, so the
# pipeline runs a fixed fan of restarts and keeps the lowest inertia.
# Restart r uses seed cfg.seed + r, so the whole fan is seed-deterministic.
KMEANS_RESTARTS = 10


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    k: int
    has_header: bool = False
    delimiter: str = ","
    graph: str = "full"
    kernel: str = "rbf"
    delta: float | None = None
    eps: float | None = None
    knn: int | None = None
    laplacian: str = "unnormalized"
    embedding: str = "nonconstant"
    seed: int = 0
    output_dir: str = "."
    zero_tol: float = 1e-8

    def validate(self) -> None:
        for name in ("delta", "eps", "zero_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name.replace('_', '-')} must be finite, got {value}")
        if self.graph not in GRAPHS:
            raise ValueError(f"graph must be one of {GRAPHS}, got {self.graph!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.laplacian not in LAPLACIANS:
            raise ValueError(f"laplacian must be one of {LAPLACIANS}, got {self.laplacian!r}")
        if self.embedding not in EMBEDDINGS:
            raise ValueError(f"embedding must be one of {EMBEDDINGS}, got {self.embedding!r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.kernel == "rbf" and (self.delta is None or self.delta <= 0.0):
            raise ValueError("the rbf kernel needs --delta > 0")
        if self.graph == "epsilon" and (self.eps is None or self.eps <= 0.0):
            raise ValueError("the epsilon graph needs --eps > 0")
        if self.graph == "knn" and (self.knn is None or self.knn < 1):
            raise ValueError("the knn graph needs --knn >= 1")
        if self.graph == "full" and self.kernel == "unit":
            raise ValueError("the full graph takes kernel rbf or shifted_dot")
        if self.graph == "knn" and self.kernel != "rbf":
            raise ValueError("the knn graph uses rbf weights; set --kernel rbf")
        if self.graph == "epsilon" and self.kernel == "shifted_dot":
            raise ValueError("the epsilon graph takes kernel unit or rbf")
        if self.zero_tol <= 0.0:
            raise ValueError(f"zero-tol must be positive, got {self.zero_tol}")


class _Spectrum(NamedTuple):
    """What the front of the pipeline computes, once per run."""

    n: int
    graph: WeightedGraph
    component_count: int
    laplacian: LaplacianMatrix
    eigensystem: EigenSystem
    multiplicity: int


def _spectrum(cfg: PipelineConfig, timer: _Timer) -> _Spectrum:
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


def _embedding(cfg: PipelineConfig, spec: _Spectrum) -> Embedding:
    es = spec.eigensystem
    if cfg.embedding == "classical":
        return embed_classical(es, cfg.k)
    # the nonconstant embeddings check connectivity at the run's tolerance,
    # so they count the same multiplicity as the spectrum stage
    if cfg.laplacian == "sym":
        return embed_normalized(es, spec.graph.degrees, cfg.k, tolerance=cfg.zero_tol)
    # the rw eigensystem's first eigenvector is constant as well
    variant = "rw" if cfg.laplacian == "rw" else "nonconstant"
    return embed_nonconstant(es, cfg.k, tolerance=cfg.zero_tol, variant=variant)


def _write_eigenvalues(eigenvalues, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lam in eigenvalues:
            fh.write(format(lam, ".17g") + "\n")


def _write_report(report: dict, out_dir: Path) -> None:
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with open(out_dir / "report.txt", "w", encoding="utf-8") as fh:
        for key in sorted(report):
            value = report[key]
            if isinstance(value, dict):
                for sub in sorted(value):
                    fh.write(f"{key}.{sub}: {_fmt(value[sub])}\n")
            else:
                fh.write(f"{key}: {_fmt(value)}\n")


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
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


def run_cluster(cfg: PipelineConfig) -> int:
    """Load, build, embed, cluster; write artifacts only after all stages pass."""
    cfg.validate()
    timer = _Timer()
    spec = _spectrum(cfg, timer)
    g, lap, es, multiplicity = spec.graph, spec.laplacian, spec.eigensystem, spec.multiplicity

    # with a classical embedding at k = c the columns are component indicators
    indicator_path = (
        multiplicity > 1 and cfg.embedding == "classical" and cfg.k == multiplicity
    )
    emb = _embedding(cfg, spec)
    timer.mark("embedding")

    result = None
    for restart in range(KMEANS_RESTARTS):
        candidate = kmeans(emb.coordinates, cfg.k, cfg.seed + restart)
        if result is None or candidate.inertia < result.inertia:
            result = candidate
    timer.mark("kmeans")

    # the covariance objective at the produced coordinates; rw pairs with the
    # unnormalized trace identity because no substitution makes rw exact
    obj_lap = lap if lap.variant in ("unnormalized", "sym") else laplacian_unnormalized(g)
    objective = covariance_objective(emb, g, obj_lap)
    timer.mark("objective")

    report = {
        "branch": "indicator" if indicator_path else "connected",
        "component_count": int(spec.component_count),
        "zero_multiplicity": int(multiplicity),
        "n": int(spec.n),
        "k": int(cfg.k),
        "seed": int(cfg.seed),
        "graph": cfg.graph,
        "kernel": cfg.kernel,
        "laplacian": cfg.laplacian,
        "embedding_requested": cfg.embedding,
        "embedding_variant": emb.variant,
        "objective": {
            "covariance": objective.covariance,
            "trace_term": objective.trace_term,
            "constant_term": objective.constant_term,
            "identity_gap": objective.identity_gap,
            "laplacian_variant": obj_lap.variant,
        },
        "kmeans_inertia": result.inertia,
        "kmeans_iterations": int(result.iterations),
        "kmeans_restarts": int(KMEANS_RESTARTS),
    }

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_labels(result.labels, out / "labels.csv")
    write_embedding(emb, out / "embedding.csv")
    _write_eigenvalues(es.eigenvalues, out / "eigenvalues.txt")
    _write_report(report, out)
    timer.mark("write")
    timer.dump()
    print(f"branch {report['branch']}, components {report['component_count']}, wrote artifacts to {out}")
    return 0


def run_pca_equiv(input_path, k: int, output_dir, has_header=False, delimiter=",") -> int:
    """Both reduction routes on one dataset; nonzero exit iff they disagree."""
    timer = _Timer()
    dataset = load_csv(input_path, has_header=has_header, delimiter=delimiter)
    timer.mark("load")
    report = pca_equivalence_report(dataset, k)
    timer.mark("equivalence")

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_equivalence_report(report, out / "report.txt")
    payload = {
        "k": int(report.k),
        "principal_angles": [float(a) for a in report.principal_angles],
        "max_angle": float(report.max_angle),
        "shift_residuals": [float(r) for r in report.shift_residuals],
        "eigengap_at_k": float(report.eigengap_at_k),
        "degenerate_spectrum": bool(report.degenerate_spectrum),
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
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


def run_eigen_report(cfg: PipelineConfig) -> int:
    """Full spectrum plus a side-by-side multiplicity / component-count check."""
    cfg.validate()
    timer = _Timer()
    spec = _spectrum(cfg, timer)
    count = spec.component_count

    agree = spec.multiplicity == count
    report = {
        "zero_multiplicity": int(spec.multiplicity),
        "component_count": int(count),
        "agreement": "AGREE" if agree else "DISAGREE",
        "zero_tol": float(cfg.zero_tol),
        "laplacian": cfg.laplacian,
        "n": int(spec.n),
    }

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_eigenvalues(spec.eigensystem.eigenvalues, out / "eigenvalues.txt")
    _write_report(report, out)
    timer.mark("write")
    timer.dump()
    print(f"zero multiplicity {spec.multiplicity}, components {count}, {report['agreement']}")
    return 0


_CONFIG_TYPES = {
    "input_path": str,
    "k": int,
    "has_header": bool,
    "delimiter": str,
    "graph": str,
    "kernel": str,
    "delta": float,
    "eps": float,
    "knn": int,
    "laplacian": str,
    "embedding": str,
    "seed": int,
    "output_dir": str,
    "zero_tol": float,
}

# flag spellings accepted in config files, mapped to field names
_CONFIG_ALIASES = {"input": "input_path", "header": "has_header", "out": "output_dir"}


def _parse_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            key = _CONFIG_ALIASES.get(key, key)
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            value = value.strip()
            kind = _CONFIG_TYPES[key]
            if kind is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(f"{path}:{lineno}: boolean key {key!r} got {value!r}")
                values[key] = value.lower() in ("true", "1")
            else:
                values[key] = kind(value)
    return values


def _add_common_flags(sub, with_config: bool = True) -> None:
    sub.add_argument("--input", dest="input_path", help="input CSV of points, one row per point")
    sub.add_argument("--header", dest="has_header", action="store_const", const=True,
                     default=None, help="first CSV row is column names")
    sub.add_argument("--delimiter", default=None, help="CSV field delimiter (default ,)")
    sub.add_argument("--out", dest="output_dir", default=None, help="artifact directory")
    if with_config:
        sub.add_argument("--config", default=None, help="key=value config file; flags override it")


def _add_pipeline_flags(sub) -> None:
    sub.add_argument("--graph", choices=GRAPHS, default=None)
    sub.add_argument("--kernel", choices=KERNELS, default=None)
    sub.add_argument("--delta", type=float, default=None, help="rbf kernel width")
    sub.add_argument("--eps", type=float, default=None, help="epsilon-graph distance threshold")
    sub.add_argument("--knn", type=int, default=None, help="neighbors per vertex for the knn graph")
    sub.add_argument("--laplacian", choices=LAPLACIANS, default=None)
    sub.add_argument("--zero-tol", dest="zero_tol", type=float, default=None,
                     help="relative tolerance for counting zero eigenvalues")


def _merge_config(args) -> PipelineConfig:
    # every PipelineConfig field the subcommand has a flag for
    flags = {f.name: getattr(args, f.name) for f in fields(PipelineConfig) if hasattr(args, f.name)}
    values = _parse_config_file(args.config) if args.config else {}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    if "input_path" not in values:
        raise ValueError("missing required --input")
    if "k" not in values and "k" in flags:
        raise ValueError("missing required --k")
    defaults = PipelineConfig(input_path=values["input_path"], k=values.get("k", 1))
    return replace(defaults, **values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="speclust",
        description="Spectral clustering, spectral embeddings, and the PCA-equivalence check.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_cluster = subparsers.add_parser("cluster", help="two-step spectral clustering")
    _add_common_flags(p_cluster)
    _add_pipeline_flags(p_cluster)
    p_cluster.add_argument("--embedding", choices=EMBEDDINGS, default=None)
    p_cluster.add_argument("--k", type=int, default=None, help="cluster count / embedding dimension")
    p_cluster.add_argument("--seed", type=int, default=None, help="k-means seed")

    p_pca = subparsers.add_parser("pca-equiv", help="verify the spectral/PCA equivalence")
    _add_common_flags(p_pca, with_config=False)
    p_pca.add_argument("--k", type=int, required=True, help="subspace dimension to compare")

    p_eigen = subparsers.add_parser("eigen", help="spectrum and component diagnostics")
    _add_common_flags(p_eigen)
    _add_pipeline_flags(p_eigen)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad command line, but 2 means numerical
        # failure here; --help exits 0 and passes through
        if exc.code == 0:
            raise
        return 1
    try:
        if args.command == "pca-equiv":
            return run_pca_equiv(
                args.input_path if args.input_path else _missing("--input"),
                args.k,
                args.output_dir if args.output_dir is not None else ".",
                has_header=bool(args.has_header),
                delimiter=args.delimiter if args.delimiter is not None else ",",
            )
        cfg = _merge_config(args)
        return run_cluster(cfg) if args.command == "cluster" else run_eigen_report(cfg)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _missing(flag: str):
    raise ValueError(f"missing required {flag}")


if __name__ == "__main__":
    sys.exit(main())
