"""The benchmark's three workloads.

A job is one call of ``Workload.run`` (timed) followed by
``Workload.check`` (untimed; raises ``CheckFailed``). A round runs one
job per variant, so every round has the same mix. ``prepare`` builds
the inputs that are not timed; its cost is part of set-up time.

Every call into tppdepth goes through a module attribute looked up at
call time (``T.simulate``, ``T.cli.main``), so the tracer's wrappers see
it. Checks never call into tppdepth.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

import tppdepth as T
import tppdepth.cli  # binds T.cli, which the package does not import itself
from checks import (
    check_contour,
    check_depths,
    check_ranks,
    check_report,
    param_fields,
    require,
    require_close,
    require_same_bits,
)

RATES_5 = (0.5, 1.0, 1.5, 2.0, 2.5)
RATES_12 = tuple(0.5 + 0.25 * i for i in range(12))
METHODS = T.analysis.METHODS
# verify_properties runs seven checks of `trials` draws each, plus P4's
# rays of 101 points.
TRIAL_CHECKS = 7
RAY_POINTS = 101
CONTOUR_RANGE = (0.0, 3.0)


@dataclass(frozen=True)
class Variant:
    kind: str
    rates: tuple[float, ...]
    k: int

    def config(self, n: int, seed: int):
        return T.SimConfig(kind=self.kind, rates=self.rates, k=self.k, n=n, seed=seed)


HPP_2 = Variant("hpp", (2.0,), 2)
SD_5 = Variant("state-dependent", RATES_5, 5)
SD_12 = Variant("state-dependent", RATES_12, 12)


def _read_table(path: Path, columns: int) -> np.ndarray:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(c) for c in row[:columns]] for row in rows[1:]]).reshape(-1, columns)


def _by_index(index, values) -> np.ndarray:
    out = np.empty(len(values), dtype=np.asarray(values).dtype)
    out[np.asarray(index, dtype=np.int64)] = values
    return out


class Workload:
    """``full`` and ``tiny`` are the input sizes of a measured and of a smoke
    or warm-up job; ``uses_io`` says whether jobs may call tppdepth.io."""

    name: str
    uses_io = False
    variants: tuple[Variant, ...]
    full: dict
    tiny: dict

    def __init__(self, workdir: Path, sizes: dict):
        self.workdir = workdir
        self.sizes = sizes

    def prepare(self, seed: int):
        return None

    def rows_per_job(self) -> int:
        return self.sizes["n"]

    def close(self) -> None:
        pass


class CliFiles(Workload):
    """simulate -> fit -> depth (product breakdown) -> rank product -> rank
    mahalanobis, through ``tppdepth.cli.main`` on files."""

    name = "cli-files"
    uses_io = True
    variants = (SD_5,)
    full = {"n": 20_000}
    tiny = {"n": 50}

    def prepare(self, seed: int) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return {name: self.workdir / name for name in
                ("sample.csv", "params.json", "depth.csv", "rank_product.csv", "rank_mahalanobis.csv")}

    def run(self, paths, variant, seed):
        p = {k: str(v) for k, v in paths.items()}
        steps = (
            ["simulate", "--kind", variant.kind, "--rates", *map(str, variant.rates),
             "--k", str(variant.k), "--n", str(self.sizes["n"]), "--seed", str(seed),
             "--out", p["sample.csv"]],
            ["fit", "--in", p["sample.csv"], "--params-out", p["params.json"]],
            ["depth", "--in", p["sample.csv"], "--params", p["params.json"],
             "--method", "product", "--out", p["depth.csv"]],
            ["rank", "--in", p["sample.csv"], "--params", p["params.json"],
             "--method", "product", "--out", p["rank_product.csv"]],
            ["rank", "--in", p["sample.csv"], "--params", p["params.json"],
             "--method", "mahalanobis", "--out", p["rank_mahalanobis.csv"]],
        )
        for argv in steps:
            code = T.cli.main(argv)
            require(code == 0, f"tppdepth {argv[0]} exited with {code}")
        return paths

    def check(self, paths, variant, seed) -> dict:
        n = self.sizes["n"]
        times = np.loadtxt(paths["sample.csv"], delimiter=",", ndmin=2)
        require(times.shape == (n, variant.k), f"sample has shape {times.shape}, expected {(n, variant.k)}")
        doc = json.loads(paths["params.json"].read_text())
        fields = param_fields(doc)
        baseline = (doc["mahalanobis_mean"], doc["mahalanobis_cov"])
        # index, omega, exponent, marginal_factor, conditional, product, baseline_mahalanobis
        depth = _read_table(paths["depth.csv"], 7)
        require(depth.shape[0] == n, f"depth file has {depth.shape[0]} rows, expected {n}")
        require(np.array_equal(depth[:, 0], np.arange(n)), "depth file rows are out of order")
        check_depths("depth product", "product", depth[:, 5], times, fields)
        check_depths("depth conditional", "conditional", depth[:, 4], times, fields)
        check_depths("depth baseline", "mahalanobis", depth[:, 6], times, fields, baseline)
        for method in ("product", "mahalanobis"):
            table = _read_table(paths[f"rank_{method}.csv"], 3)
            label = f"rank {method}"
            require(table.shape[0] == n, f"{label}: {table.shape[0]} rows, expected {n}")
            index = table[:, 0].astype(np.int64)
            require(np.array_equal(np.sort(index), np.arange(n)), f"{label}: indices are not 0..n-1")
            require(np.all(np.diff(table[:, 1]) <= 0), f"{label}: rows are not deepest first")
            depth_by_index = _by_index(index, table[:, 1])
            check_ranks(label, depth_by_index, _by_index(index, table[:, 2].astype(np.int64)))
            check_depths(label, method, depth_by_index, times, fields, baseline)
            if method == "product":
                require_same_bits("rank product depth vs depth product column",
                                  depth_by_index, depth[:, 5])
        return {"csv_bytes": {name: path.stat().st_size for name, path in paths.items()}}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def with_ties(sample, seed: int):
    """The sample with one gap set to exactly 0 in 1 % of the rows.

    Tied event times put those rows on the boundary, so the exact-zero
    path, the zero-depth check and the tied trailing rank block all run.
    """
    rng = np.random.default_rng(seed)
    times = np.array(sample.times)
    n, k = times.shape
    rows = rng.choice(n, size=max(1, n // 100), replace=False)
    cols = rng.integers(0, k, size=rows.size)
    previous = np.where(cols > 0, times[rows, np.maximum(cols - 1, 0)], sample.start)
    times[rows, cols] = previous
    return T.SampleSet(sample.start, times)


class LibraryRank(Workload):
    """In memory: simulate -> fit -> depth_values (5 methods) -> rank product
    and mahalanobis -> near_boundary_comparison, cycling over k."""

    name = "library-rank"
    variants = (HPP_2, SD_5, SD_12)
    full = {"n": 20_000}
    tiny = {"n": 200}
    threshold = 0.05

    def run(self, inputs, variant, seed):
        sample = with_ties(T.simulate(variant.config(self.sizes["n"], seed)), seed)
        params = T.fit_params(sample)
        baseline = T.fit_mahalanobis(sample)
        values = {m: T.depth_values(sample, params, m, baseline=baseline) for m in METHODS}
        tables = {m: T.rank(sample, params, m, baseline=baseline) for m in ("product", "mahalanobis")}
        summary = T.near_boundary_comparison(sample, params, self.threshold)
        return sample, params, baseline, values, tables, summary

    def check(self, outputs, variant, seed) -> dict:
        sample, params, baseline, values, tables, summary = outputs
        n = self.sizes["n"]
        times = np.asarray(sample.times)
        require(times.shape == (n, variant.k), f"sample has shape {times.shape}")
        fields = param_fields(params)
        for method in METHODS:
            check_depths(f"depth_values {method}", method, values[method], times, fields, baseline)
        for method, table in tables.items():
            label = f"rank {method}"
            require(table.n == n, f"{label}: {table.n} entries, expected {n}")
            depth_by_index = table.depths_by_index()
            require_same_bits(f"{label} depths vs depth_values", depth_by_index, values[method])
            check_ranks(label, depth_by_index, table.ranks_by_index())
            order = [e.index for e in table.entries]
            require(np.all(np.diff(depth_by_index[order]) <= 0), f"{label}: entries are not deepest first")
        fractions = np.diff(times, axis=1, prepend=sample.start) / (times[:, -1:] - sample.start)
        near = np.nonzero(fractions.min(axis=1) < self.threshold)[0]
        require(near.size > 0 and np.array_equal(np.asarray(summary.indices), near),
                "near-boundary subset differs")
        # The baseline is fitted on this sample, as near_boundary_comparison fits it.
        for method, mean in (("product", summary.mean_product_rank),
                             ("mahalanobis", summary.mean_mahalanobis_rank)):
            expected = rankdata(-values[method], method="min")[near].mean()
            require_close(f"near-boundary mean {method} rank", [mean], [expected], 1e-12)
        return {}


class VerifyContour(Workload):
    """verify_properties at acceptance-criterion-1 settings, verify with a refit
    per P3 trial, and 101x101 contours for all five methods."""

    name = "verify-contour"
    variants = (HPP_2,)
    full = {"fit_n": 100, "trials": 10_000, "rays": 1_000,
            "refit_n": 1_000, "refit_trials": 1_000, "refit_rays": 100, "resolution": 101}
    tiny = {"fit_n": 100, "trials": 20, "rays": 5,
            "refit_n": 100, "refit_trials": 5, "refit_rays": 2, "resolution": 11}

    def prepare(self, seed: int) -> dict:
        s = self.sizes
        sample2 = T.simulate(HPP_2.config(s["fit_n"], seed))
        sample5 = T.simulate(SD_5.config(s["refit_n"], seed))
        return {
            "params2": T.fit_params(sample2),
            "baseline2": T.fit_mahalanobis(sample2),
            "params5": T.fit_params(sample5),
            "sample5": sample5,
        }

    def rows_per_job(self) -> int:
        s = self.sizes
        return (TRIAL_CHECKS * s["trials"] + RAY_POINTS * s["rays"]
                + TRIAL_CHECKS * s["refit_trials"] + RAY_POINTS * s["refit_rays"]
                + len(METHODS) * s["resolution"] ** 2)

    def run(self, inputs, variant, seed):
        s = self.sizes
        reports = (
            T.verify_properties(inputs["params2"], trials=s["trials"], seed=seed, rays=s["rays"]),
            T.verify_properties(inputs["params5"], trials=s["refit_trials"], seed=seed,
                                rays=s["refit_rays"], sample=inputs["sample5"]),
        )
        grids = [T.contour_grid(inputs["params2"], m, CONTOUR_RANGE, CONTOUR_RANGE,
                                s["resolution"], baseline=inputs["baseline2"]) for m in METHODS]
        return inputs, reports, grids

    def check(self, outputs, variant, seed) -> dict:
        inputs, reports, grids = outputs
        check_report("verify k=2", reports[0])
        check_report("verify k=5 with refit", reports[1])
        fields = param_fields(inputs["params2"])
        for grid in grids:
            require(grid.values.shape == (self.sizes["resolution"],) * 2, f"contour {grid.method}: bad shape")
            check_contour(grid, fields, inputs["baseline2"])
        return {}


WORKLOADS = {w.name: w for w in (CliFiles, LibraryRank, VerifyContour)}
