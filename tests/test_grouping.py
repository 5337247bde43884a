"""CAMT, DIT and derive_grouping on hand-built loss matrices.

Rows of a LossMatrix are decoders and columns are contexts, both in the
order of ``context_ids``.
"""

import numpy as np
import pytest

from ctxae.errors import ConfigError, SingleContext
from ctxae.grouping import (DISTINCT, MERGEABLE, LossMatrix, camt, default_delta,
                            derive_grouping, dit)


def _matrix(context_ids, rows) -> LossMatrix:
    return LossMatrix(context_ids=tuple(context_ids), values=np.array(rows, dtype=float),
                      counts=np.full(len(context_ids), 10))


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
    assert dit(matrix, 0, 0.25) == (0, 2)
    assert dit(matrix, 0, np.nextafter(0.25, 0.0)) == (2,)
    assert dit(matrix, 0, {0: 0.25, 1: 0.5, 2: 0.1}) == (0, 1)


def test_derive_grouping_merges_twins():
    result = derive_grouping(TWINS, 0.2, delta=0.05)
    assert result.groups == ((0, (0, 1)),)
    assert result.distinct == (2,)
    assert result.as_map() == {0: 0, 1: 0, 2: 2}
    assert result.decoder_count == 2


def test_derive_grouping_keeps_distinct_contexts():
    values = np.full((3, 3), 0.9)
    np.fill_diagonal(values, 0.1)
    result = derive_grouping(_matrix((0, 5, 12), values), 0.2, delta=0.05)
    assert result.groups == ()
    assert result.distinct == (0, 5, 12)
    assert result.as_map() == {0: 0, 5: 5, 12: 12}


def test_derive_grouping_falls_back_to_distinct_when_no_decoder_serves():
    # context 2 fails CAMT (a foreign decoder is within delta) but no
    # decoder, its own included, reconstructs it under the cap
    matrix = _matrix((0, 1, 2), [[0.1, 0.1, 0.55],
                                 [0.1, 0.1, 0.55],
                                 [0.9, 0.9, 0.5]])
    result = derive_grouping(matrix, 0.2, delta=0.1)
    assert result.groups == ((0, (0, 1)),)
    assert result.distinct == (2,)


def test_derive_grouping_breaks_ties_on_the_lowest_decoder_id():
    # decoders 2 and 5 each serve two contexts; decoder 2 claims first
    matrix = _matrix((2, 5, 8), [[0.1, 0.5, 0.1],
                                 [0.5, 0.1, 0.1],
                                 [0.5, 0.5, 0.1]])
    result = derive_grouping(matrix, 0.2, delta=0.05, strategy="contextual-only")
    assert result.groups == ((2, (2, 8)), (5, (5,)))
    assert result.distinct == ()


def test_contextual_only_strategy_skips_camt():
    matrix = _matrix((0, 1), [[0.1, 0.15],
                              [0.9, 0.1]])
    full = derive_grouping(matrix, 0.2, delta=0.01)
    assert full.groups == () and full.distinct == (0, 1)
    contextual = derive_grouping(matrix, 0.2, delta=0.01, strategy="contextual-only")
    assert contextual.groups == ((0, (0, 1)),)
    assert contextual.distinct == ()
    assert contextual.strategy == "contextual-only"


@pytest.mark.parametrize("delta", [0.0, -0.05])
def test_derive_grouping_rejects_non_positive_delta(delta):
    with pytest.raises(ConfigError):
        derive_grouping(TWINS, 0.2, delta=delta)


def test_default_delta_is_a_scaled_mad_with_a_floor():
    spread = _matrix((0, 1, 2), np.diag([0.1, 0.2, 0.4]) + 0.9 * (1 - np.eye(3)))
    assert default_delta(spread) == pytest.approx(1.4826 * 0.1)
    assert default_delta(TWINS) == 1e-12
    # the default is what derive_grouping records when delta is omitted
    assert derive_grouping(spread, 0.2).delta == default_delta(spread)
