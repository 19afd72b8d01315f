"""Command line front end: `bench run`, `bench pca`."""

from __future__ import annotations

import os
import sys

import click

from .bench import BenchmarkConfig, emit_report, run_benchmark
from .data import DataError, load_csv, load_synthetic_csv, make_dir, open_text
from .pca import pca_project


class _Commands(click.Group):
    def invoke(self, ctx):  # any command's bad input file: one usage-error line, exit 2
        try:
            return super().invoke(ctx)
        except DataError as exc:
            raise click.UsageError(str(exc)) from None


@click.group(cls=_Commands)
def main() -> None:
    """Benchmark harness for convex-space oversampling on imbalanced data."""


@main.command()
@click.option("--config", "config_path", required=True, help="JSON benchmark configuration.")
@click.option("--out", "out_dir", default="bench-out", show_default=True,
              help="Output directory for reports.")
@click.option("--seed", type=int, default=None,
              help="Override the config master seed.")
@click.option("--jobs", type=click.IntRange(min=1),
              default=lambda: len(os.sched_getaffinity(0)),
              show_default="the CPUs this process may use",
              help="Parallel worker processes.")
def run(config_path, out_dir, seed, jobs) -> None:
    """Run the full cross-validated benchmark grid."""
    def progress(result):
        ds, ovs, shuffle, _, seconds = result
        click.echo(f"  {ds} / {ovs} / shuffle {shuffle}: {seconds:.1f}s")

    cfg = BenchmarkConfig.from_json(config_path, seed_override=seed)
    cfg.load_datasets()  # a bad dataset must not leave an `out` directory behind
    make_dir(out_dir)  # before the grid runs, so an `out` that cannot be made loses no work
    report, timings = run_benchmark(cfg, jobs=jobs, progress=progress)
    paths = emit_report(report, timings, out_dir)
    failed = [c for c in report["cells"] if c["status"] != "ok"]
    click.echo(f"wrote {paths['raw']}")
    if failed:
        click.echo(f"{len(failed)} cell(s) failed; see the raw report for details")
        sys.exit(1)


@main.command()
@click.option("--dataset", "dataset_path", required=True)
@click.option("--label-col", required=True, help="Name of the label column.")
@click.option("--minority-label", required=True, help="Label value of the minority class.")
@click.option("--synthetic", "synthetic_path", required=True,
              help="CSV of synthetic rows (feature columns only).")
@click.option("--out", "out_path", required=True, help="Destination CSV of (set,x,y).")
def pca(dataset_path, label_col, minority_label, synthetic_path, out_path) -> None:
    """Project real and synthetic rows onto the real data's top-2 PCA axes."""
    dataset = load_csv(dataset_path, label_col, minority_label)
    synthetic = load_synthetic_csv(synthetic_path, dataset.n_features)
    projection = pca_project(dataset.features, synthetic)
    rows = [("real", p) for p in projection.real] + [("synthetic", p) for p in projection.synthetic]
    text = "set,x,y\n" + "".join(f"{tag},{float(x)!r},{float(y)!r}\n" for tag, (x, y) in rows)
    with open_text(out_path, "w") as fh:
        fh.write(text)
    frac = projection.explained_fraction
    click.echo(f"explained variance fractions: {frac[0]:.4f}, {frac[1]:.4f}")
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
