"""Command line front end: `bench run` runs a config's grid, `bench pca` projects one fold."""

from __future__ import annotations

import os
import sys

import click

from .bench import BenchmarkConfig, audited_fold, emit_report, fold_plan, run_benchmark
from .data import DataError, make_dir, open_text
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
    datasets = cfg.load_datasets()  # a bad dataset must not leave an `out` directory behind
    make_dir(out_dir)  # before the grid runs, so an `out` that cannot be made loses no work
    report, timings = run_benchmark(cfg, jobs=jobs, progress=progress, datasets=datasets)
    paths = emit_report(report, timings, out_dir)
    failed = [c for c in report["cells"] if c["status"] != "ok"]
    click.echo(f"wrote {paths['raw']}")
    if failed:
        click.echo(f"{len(failed)} cell(s) failed; see the raw report for details")
        sys.exit(1)


def _named(config_path, specs, name: str, what: str):
    """The entry called `name` in `specs`, a list of the config at `config_path`."""
    by_name = {spec.name: spec for spec in specs}
    if name not in by_name:
        raise DataError(f"{config_path}: no {what} named {name!r}; choose from {list(by_name)}")
    return by_name[name]


@main.command()
@click.option("--config", "config_path", required=True, help="JSON benchmark configuration.")
@click.option("--dataset", "dataset_name", required=True, help="A config dataset.")
@click.option("--oversampler", "oversampler_name", required=True, help="A config oversampler.")
@click.option("--out", "out_path", required=True, help="Destination CSV of (set,x,y).")
def pca(config_path, dataset_name, oversampler_name, out_path) -> None:
    """Project shuffle 0, fold 0 of the grid onto its training rows' top-2 PCA axes."""
    cfg = BenchmarkConfig.from_json(config_path)
    oversampler = _named(config_path, cfg.oversamplers, oversampler_name, "oversampler")
    dataset = _named(config_path, cfg.load_datasets().values(), dataset_name, "dataset")
    train, result = audited_fold(cfg, dataset, fold_plan(cfg, dataset), oversampler, 0, 0)
    projection = pca_project(train.features, result.synthetic)
    rows = [("minority" if y else "majority", p) for y, p in zip(train.labels, projection.real)]
    rows += [("synthetic", p) for p in projection.synthetic]
    text = "set,x,y\n" + "".join(f"{tag},{float(x)!r},{float(y)!r}\n" for tag, (x, y) in rows)
    with open_text(out_path, "w") as fh:
        fh.write(text)
    frac = projection.explained_fraction
    click.echo(f"explained variance fractions: {frac[0]:.4f}, {frac[1]:.4f}")
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
