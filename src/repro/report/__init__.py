"""Terminal reporting: ASCII charts, result tables and certificate text.

The experiment modules return the series a paper figure plots; this
package renders them as tables and charts directly in the terminal, so the
figure *shapes* (the actual reproduction targets) are visible without a
plotting stack.
"""

from repro.report.certificates import certified, render_certificates
from repro.report.charts import (
    AsciiChart,
    render_comparison_table,
    render_figure,
    render_heatmap,
    render_series,
)

__all__ = [
    "AsciiChart",
    "certified",
    "render_certificates",
    "render_comparison_table",
    "render_figure",
    "render_heatmap",
    "render_series",
]
