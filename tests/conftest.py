"""Shared fixtures and oracles."""

import pytest

import symcat.bimodel as bm
from symcat.linalg import clear_memos


def compose_by_definition(u, v):
    """Oracle: (u∘v)(i) = u(v(i)), read entry by entry."""
    return tuple(u[j - 1] for j in v)


def fresh_walk(m, base):
    """diagram_to_map's images by a direct walk: _slice_images, then
    canonicalize on each image, with no slice table and no rank."""
    images = []
    for start in bm.tensor_basis(bm.path_from_signature(m.domain, base)):
        image = {}
        for diag, coeff in m.terms.items():
            cur = {start: 1}
            for q, sl in enumerate(diag.slices):
                below = bm.path_from_signature(diag.sig_below(q), base)
                above = bm.path_from_signature(diag.sig_below(q + 1), base)
                nxt = {}
                for elem, c in cur.items():
                    for elem2 in bm._slice_images(below, above, sl, elem):
                        elem2 = bm.canonicalize(above, elem2)
                        nxt[elem2] = nxt.get(elem2, 0) + c
                cur = nxt
            for elem, c in cur.items():
                image[elem] = image.get(elem, 0) + coeff * c
        images.append({e: c for e, c in image.items() if c})
    return images


def patch_table(monkeypatch, module, n, **edits):
    """Have `module` read a copy of `perm_table(n)` with some entries replaced:
    each keyword names a field, and `rank` takes {perm: rank}, `slide`
    {(j, i): slide}, and `left`, `right`, `nil_left` and `nil_right`
    {(j, rank): rank or None}.  The memoised table itself is left as it is."""
    true_table = module.perm_table
    table = true_table(n)
    fields = {}
    for field, changes in edits.items():
        old = getattr(table, field)
        if field in ('left', 'right', 'nil_left', 'nil_right'):
            fields[field] = {j: tuple(changes.get((j, r), x) for r, x in enumerate(row))
                             for j, row in old.items()}
        else:
            fields[field] = {**old, **changes}
    fake = table._replace(**fields)
    monkeypatch.setattr(module, 'perm_table', lambda m: fake if m == n else true_table(m))


@pytest.fixture
def fresh_memos():
    """Clear every memo in `linalg.MEMOS` before and after a test; the
    fixture's value clears them again when called.

    A test that monkeypatches a kernel that a memo reads (such as `sf._row`,
    or `bm.transposition`, which `_slice_images` calls) would otherwise leave
    entries built on the patched kernel for later tests, or read entries
    built before the patch.  Request this fixture ahead of `monkeypatch`,
    so that the memos are cleared again after the patch is undone.
    """
    clear_memos()
    yield clear_memos
    clear_memos()
