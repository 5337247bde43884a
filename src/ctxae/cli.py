"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numerical
failure, 1 any other pipeline error. Errors print a single machine-parsable
line `<ErrorClass>: <message>` on stderr. Thread count is controlled via
the BLAS environment variables (e.g. OMP_NUM_THREADS) only.
"""

from __future__ import annotations

import json
import sys

import click

from . import pipeline
from .config import load_config
from .detectors import KINDS
from .errors import ConfigError, CtxaeError, MissingArtifact, NumericalError

_EXIT_CODES = ((ConfigError, 2), (MissingArtifact, 3), (NumericalError, 4),
               (CtxaeError, 1))


def _config_options(fn):
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="Override the output directory.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the config seed.")(fn)
    return click.option("--config", "-c", "config_path", required=True,
                        type=click.Path(), help="Run configuration YAML.")(fn)


_kind_option = click.option("--kind", type=click.Choice(KINDS), required=True)


def _run(stage_fn, config_path, seed, out_dir, **kwargs):
    try:
        cfg = load_config(config_path, seed=seed, out_dir=out_dir)
        summary = stage_fn(cfg, **kwargs)
    except CtxaeError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                sys.exit(code)
        sys.exit(1)
    brief = {k: v for k, v in summary.items()
             if isinstance(v, (int, float, str, bool))}
    click.echo(json.dumps({"ok": stage_fn.__name__.removeprefix("stage_"),
                           **brief}, default=str))


@click.group()
def main():
    """Context-aware autoencoder anomaly detection for vessel trajectories."""


@main.command()
@_config_options
def simulate(config_path, seed, out_dir):
    """Generate the synthetic fleet with ground-truth anomaly tags."""
    _run(pipeline.stage_simulate, config_path, seed, out_dir)


@main.command()
@_config_options
def ingest(config_path, seed, out_dir):
    """Parse and validate input records once; write the table and context counts."""
    _run(pipeline.stage_ingest, config_path, seed, out_dir)


@main.command()
@_config_options
def build(config_path, seed, out_dir):
    """Cut, filter, split, normalize and persist the window dataset."""
    _run(pipeline.stage_build, config_path, seed, out_dir)


@main.command()
@_kind_option
@_config_options
def train(kind, config_path, seed, out_dir):
    """Train one detector variant on the built dataset."""
    _run(pipeline.stage_train, config_path, seed, out_dir, kind=kind)


@main.command()
@_kind_option
@_config_options
def thresholds(kind, config_path, seed, out_dir):
    """Fit per-context and global thresholds for a trained detector."""
    _run(pipeline.stage_thresholds, config_path, seed, out_dir, kind=kind)


@main.command()
@_config_options
def group(config_path, seed, out_dir):
    """Derive the context grouping from the trained CAE."""
    _run(pipeline.stage_group, config_path, seed, out_dir)


@main.command()
@_kind_option
@_config_options
def detect(kind, config_path, seed, out_dir):
    """Score the test split and write verdicts."""
    _run(pipeline.stage_detect, config_path, seed, out_dir, kind=kind)


@main.command()
@_config_options
def evaluate(config_path, seed, out_dir):
    """Aggregate detections into confusion/overlap/severity/truth metrics."""
    _run(pipeline.stage_evaluate, config_path, seed, out_dir)


@main.command()
@_config_options
def report(config_path, seed, out_dir):
    """Write the versioned summary report for the run."""
    _run(pipeline.stage_report, config_path, seed, out_dir)


@main.command()
@_config_options
def run(config_path, seed, out_dir):
    """Run every stage in canonical order."""
    _run(pipeline.run_all, config_path, seed, out_dir)


if __name__ == "__main__":
    main()
