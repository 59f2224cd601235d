"""Cubic fourfolds containing a plane: the plane discriminant against the
slices, and the line census against the fibration map."""

import random

import pytest

from cubicfano.fourfold import (
    Indeterminate,
    lines_on_fourfold,
    pi_of_line,
    plane_discriminant,
    random_general_fourfold,
    slice_threefold,
)
from cubicfano.gf import field
from cubicfano.pencil import discriminant
from cubicfano.projective import projective_reps


def seeded_fourfold(seed):
    return random_general_fourfold(field(3), random.Random(seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_plane_discriminant_restricts_to_every_slice_discriminant(seed):
    nx = seeded_fourfold(seed)
    disc = plane_discriminant(nx)
    duals = list(projective_reps(nx.K, 2))
    assert len(duals) == 13
    for lam in duals:
        sliced = discriminant(slice_threefold(nx, lam).threefold).form
        assert disc.restricted_to_dual(lam).coeffs == sliced.coeffs


@pytest.mark.parametrize("seed, n_lines", [(0, 181), (1, 150)])
def test_lines_on_fourfold_and_the_indeterminacy_of_the_fibration(seed, n_lines):
    nx = seeded_fourfold(seed)
    lines = lines_on_fourfold(nx)
    assert len(lines) == n_lines
    images = [pi_of_line(nx, line) for line in lines]
    # exactly the 13 lines of P are points of indeterminacy
    indeterminate = [im for im in images if isinstance(im, Indeterminate)]
    assert len(indeterminate) == 13
    assert all(nx.plane.contains_line(line) == isinstance(im, Indeterminate) for line, im in zip(lines, images))
    duals = set(projective_reps(nx.K, 2))
    assert all(im in duals for im in images if not isinstance(im, Indeterminate))
