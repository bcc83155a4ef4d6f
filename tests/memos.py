"""Test helper: empty the memos of :mod:`macpoly.tableaux`."""

from macpoly import tableaux


def clear_tableaux_memos():
    """Empty every memo of :mod:`macpoly.tableaux`, found as the module's
    attributes with a ``cache_clear``, so a memo added later is cleared too
    and cannot hide a planted fault or keep a mutant's answers."""
    for value in vars(tableaux).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
