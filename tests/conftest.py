"""Shared fixtures and oracles."""

import pytest

import symcat.bimodel as bm
import symcat.combinatorics as cb
import symcat.heisenberg as hs


KERNEL_MEMOS = (bm._slice_table, bm._frame, bm._layout, bm.path_from_signature, bm._mn_character,
                bm._class_weights, cb._inversions, cb.coset_rep, hs._with_part, hs._hstar_past_e)


def compose_by_definition(u, v):
    """Oracle: (u∘v)(i) = u(v(i)), read entry by entry."""
    return tuple(u[j - 1] for j in v)


def _clear_kernel_memos():
    for memo in KERNEL_MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_kernel_memos():
    """Clear the kernel memos (KERNEL_MEMOS) before and after a test;
    the fixture's value clears them again when called.

    A test that monkeypatches a kernel these memos read (such as
    `bm.transposition`, which `_slice_images` calls) would otherwise leave
    entries built on the patched kernel for later tests, or read entries
    built before the patch.  Request this fixture ahead of `monkeypatch`,
    so that the memos are cleared again after the patch is undone.
    """
    _clear_kernel_memos()
    yield _clear_kernel_memos
    _clear_kernel_memos()
