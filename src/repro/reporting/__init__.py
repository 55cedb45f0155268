"""Output helpers: ASCII tables and CSV series for the experiment runners."""

from repro._lazy import lazy_exports

__all__ = ["format_table", "series_to_csv", "write_csv"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "tables": ("format_table",),
    "series": ("series_to_csv", "write_csv"),
})
