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


# name, stage function, whether it takes --kind, help line
STAGES = (
    ("simulate", pipeline.stage_simulate, False,
     "Generate the synthetic fleet with ground-truth anomaly tags."),
    ("ingest", pipeline.stage_ingest, False,
     "Parse and validate input records once; write the table and context counts."),
    ("build", pipeline.stage_build, False,
     "Cut, filter, split, normalize and persist the window dataset."),
    ("train", pipeline.stage_train, True,
     "Train one detector variant on the built dataset."),
    ("thresholds", pipeline.stage_thresholds, True,
     "Fit per-context and global thresholds for a trained detector."),
    ("group", pipeline.stage_group, False,
     "Derive the context grouping from the trained CAE."),
    ("detect", pipeline.stage_detect, True,
     "Score the test split and write verdicts."),
    ("evaluate", pipeline.stage_evaluate, False,
     "Aggregate detections into confusion/overlap/severity/truth metrics."),
    ("report", pipeline.stage_report, False,
     "Write the versioned summary report for the run."),
    ("run", pipeline.run_all, False, "Run every stage in canonical order."),
)


def _command(stage_fn):
    """The callback of stage_fn's subcommand: run it, print its summary."""
    def command(config_path, seed, out_dir, **kind):
        try:
            cfg = load_config(config_path, seed=seed, out_dir=out_dir)
            summary = stage_fn(cfg, **kind)
        except CtxaeError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(next(code for klass, code in _EXIT_CODES if isinstance(exc, klass)))
        brief = {k: v for k, v in summary.items()
                 if isinstance(v, (int, float, str, bool))}
        click.echo(json.dumps({"ok": stage_fn.__name__.removeprefix("stage_"),
                               **brief}, default=str))
    return command


@click.group()
def main():
    """Context-aware autoencoder anomaly detection for vessel trajectories."""


for _name, _stage_fn, _takes_kind, _help in STAGES:
    _callback = _config_options(_command(_stage_fn))
    if _takes_kind:
        _callback = click.option("--kind", type=click.Choice(KINDS), required=True)(_callback)
    main.command(_name, help=_help)(_callback)


if __name__ == "__main__":
    main()
