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


def _command(name, run):
    """The callback of subcommand name: run it, print its summary."""
    def command(config_path, seed, out_dir, **kind):
        try:
            cfg = load_config(config_path, seed=seed, out_dir=out_dir)
            summary = run(cfg, **kind)
        except CtxaeError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(next(code for klass, code in _EXIT_CODES if isinstance(exc, klass)))
        brief = {k: v for k, v in summary.items()
                 if isinstance(v, (int, float, str, bool))}
        click.echo(json.dumps({"ok": name, **brief}, default=str))
    return command


@click.group()
def main():
    """Context-aware autoencoder anomaly detection for vessel trajectories."""


for _name, _run, _help, _per_model in (
        *((s.name, s.run, s.help, s.per_model) for s in pipeline.STAGES.values()),
        ("run", pipeline.run_all, "Run every stage in canonical order.", False)):
    _callback = _config_options(_command(_name, _run))
    if _per_model:
        _callback = click.option("--kind", type=click.Choice(KINDS), required=True)(_callback)
    main.command(_name, help=_help)(_callback)


if __name__ == "__main__":
    main()
