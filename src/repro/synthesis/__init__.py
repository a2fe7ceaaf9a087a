"""Physical-synthesis flow and reporting (Table-1 formatting).

Public names resolve lazily: each imports its defining submodule on
first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".flow": ("synthesize",),
        ".report": (
            "ComparisonRow",
            "PAPER_TABLE1",
            "SynthesisReport",
            "format_table1",
        ),
    },
)
