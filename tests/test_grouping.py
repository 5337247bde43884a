"""CAMT, DIT and derive_grouping on hand-built loss matrices.

Rows of a LossMatrix are decoders and columns are contexts, both in the
order of ``context_ids``. DIT caps each context at its own threshold, as
the cae detector's threshold table gives them.
"""

import numpy as np
import pytest

from ctxae.errors import ConfigError, SingleContext
from ctxae.grouping import (DISTINCT, MERGEABLE, LossMatrix, camt, default_delta,
                            derive_grouping, dit, load_grouping, save_grouping,
                            save_matrix)
from ctxae.thresholds import ThresholdEntry, ThresholdTable


def _matrix(context_ids, rows) -> LossMatrix:
    return LossMatrix(context_ids=tuple(context_ids), values=np.array(rows, dtype=float),
                      counts=np.full(len(context_ids), 10))


def _caps(matrix, *taus) -> ThresholdTable:
    """One cap per context of matrix, in its order."""
    return ThresholdTable(lam=5.0, fit_split="train", entries={
        c: ThresholdEntry(c, 10, 0.0, 0.0, tau) for c, tau in zip(matrix.context_ids, taus)})


# contexts 0 and 1 are twins: either decoder reconstructs both equally well
TWINS = _matrix((0, 1, 2), [[0.1, 0.1, 0.9],
                            [0.1, 0.1, 0.9],
                            [0.9, 0.9, 0.1]])


def test_camt_separates_distinct_from_mergeable():
    assert camt(TWINS, 0, delta=0.05) == MERGEABLE
    assert camt(TWINS, 1, delta=0.05) == MERGEABLE
    assert camt(TWINS, 2, delta=0.05) == DISTINCT
    # a margin wider than the foreign gap makes context 2 mergeable too
    assert camt(TWINS, 2, delta=0.8) == MERGEABLE


def test_camt_needs_two_contexts():
    with pytest.raises(SingleContext):
        camt(_matrix((4,), [[0.1]]), 4, delta=0.05)


def test_dit_keeps_a_loss_exactly_at_the_cap():
    matrix = _matrix((0, 1, 2), [[0.25, 0.5, 0.125],
                                 [0.5, 0.25, 0.5],
                                 [0.5, 0.5, 0.25]])
    assert dit(matrix, 0, _caps(matrix, 0.25, 0.25, 0.25)) == (0, 2)
    assert dit(matrix, 0, _caps(matrix, np.nextafter(0.25, 0.0), 0.25, 0.25)) == (2,)
    assert dit(matrix, 0, _caps(matrix, 0.25, 0.5, 0.1)) == (0, 1)


def test_derive_grouping_merges_twins():
    result = derive_grouping(TWINS, _caps(TWINS, 0.2, 0.15, 0.2), delta=0.05)
    assert result.groups == ((0, (0, 1)),)
    assert result.distinct == (2,)
    assert result.as_map() == {0: 0, 1: 0, 2: 2}
    assert result.decoder_count == 2


def test_derive_grouping_keeps_distinct_contexts():
    values = np.full((3, 3), 0.9)
    np.fill_diagonal(values, 0.1)
    matrix = _matrix((0, 5, 12), values)
    result = derive_grouping(matrix, _caps(matrix, 0.2, 0.2, 0.2), delta=0.05)
    assert result.groups == ()
    assert result.distinct == (0, 5, 12)
    assert result.as_map() == {0: 0, 5: 5, 12: 12}


def test_derive_grouping_falls_back_to_distinct_when_no_decoder_serves():
    # context 2 fails CAMT (a foreign decoder is within delta) but no
    # decoder, its own included, reconstructs it under the cap
    matrix = _matrix((0, 1, 2), [[0.1, 0.1, 0.55],
                                 [0.1, 0.1, 0.55],
                                 [0.9, 0.9, 0.5]])
    result = derive_grouping(matrix, _caps(matrix, 0.2, 0.2, 0.45), delta=0.1)
    assert result.groups == ((0, (0, 1)),)
    assert result.distinct == (2,)


def test_derive_grouping_breaks_ties_on_the_lowest_decoder_id():
    # decoders 2 and 5 each serve two contexts; decoder 2 claims first
    matrix = _matrix((2, 5, 8), [[0.1, 0.5, 0.1],
                                 [0.5, 0.1, 0.1],
                                 [0.5, 0.5, 0.1]])
    result = derive_grouping(matrix, _caps(matrix, 0.2, 0.2, 0.2), delta=0.05,
                             strategy="contextual-only")
    assert result.groups == ((2, (2, 8)), (5, (5,)))
    assert result.distinct == ()


def test_contextual_only_strategy_skips_camt():
    matrix = _matrix((0, 1), [[0.1, 0.15],
                              [0.9, 0.1]])
    caps = _caps(matrix, 0.2, 0.2)
    full = derive_grouping(matrix, caps, delta=0.01)
    assert full.groups == () and full.distinct == (0, 1)
    contextual = derive_grouping(matrix, caps, delta=0.01, strategy="contextual-only")
    assert contextual.groups == ((0, (0, 1)),)
    assert contextual.distinct == ()
    assert contextual.strategy == "contextual-only"


@pytest.mark.parametrize("delta", [0.0, -0.05])
def test_derive_grouping_rejects_non_positive_delta(delta):
    with pytest.raises(ConfigError):
        derive_grouping(TWINS, _caps(TWINS, 0.2, 0.2, 0.2), delta=delta)


def test_default_delta_is_a_scaled_mad_with_a_floor():
    spread = _matrix((0, 1, 2), np.diag([0.1, 0.2, 0.4]) + 0.9 * (1 - np.eye(3)))
    assert default_delta(spread) == pytest.approx(1.4826 * 0.1)
    assert default_delta(TWINS) == 1e-12
    # the default is what derive_grouping records when delta is omitted
    assert derive_grouping(spread, _caps(spread, 0.2, 0.2, 0.2)).delta \
        == default_delta(spread)


def test_grouping_and_loss_matrix_files(tmp_path):
    result = derive_grouping(TWINS, _caps(TWINS, 0.2, 0.15, 0.2), delta=0.05)
    assert result.groups and result.distinct
    path = tmp_path / "grouping.json"
    save_grouping(path, result)
    # stage_train --kind gcae reads the partition back through load_grouping
    loaded = load_grouping(path)
    assert loaded == result
    assert loaded.as_map() == {0: 0, 1: 0, 2: 2}
    save_grouping(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    matrix = LossMatrix(context_ids=(0, 5, 12), values=TWINS.values,
                        counts=np.array([7, 512, 3]))
    save_matrix(tmp_path / "loss_matrix.csv", matrix)
    assert (tmp_path / "loss_matrix.csv").read_text().splitlines() == [
        "decoder_id,c0,c5,c12",
        "counts,7,512,3",
        "0,0.1,0.1,0.9",
        "5,0.1,0.1,0.9",
        "12,0.9,0.9,0.1",
    ]
