"""EXPERIMENTS.md cannot drift from the generated ``figures_full.txt``.

``make experiments`` holds the file to the code (regenerate, then ``git
diff --exit-code``); this holds the document to the file, without
running a simulation: every number in the Figure 1a/1b/2a/2b tables and
the contrast table equals the matching cell of the generated text.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
NUMBER = re.compile(r"\d+\.\d+")


def _numeric_rows(text, marker):
    """Rows of floats from the lines after ``marker``, up to the first
    blank line; lines without a decimal number (rulers, headers) drop."""
    lines = text.split(marker, 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    rows = [[float(n) for n in NUMBER.findall(line)] for line in lines]
    return [row for row in rows if row]


def test_every_table_number_equals_the_generated_cell():
    generated = (REPO / "figures_full.txt").read_text()
    document = (REPO / "EXPERIMENTS.md").read_text()
    for fig, width in (("1a", 9), ("1b", 9), ("2a", 3), ("2b", 3)):
        # generated rows lead with the integer node count; the document's
        # table rows do too, and NUMBER skips both
        wanted = _numeric_rows(generated, f"Fig {fig}: ")
        found = _numeric_rows(document.split(f"## Figure {fig} ", 1)[1],
                              "\n\n")
        assert found == wanted, fig
        assert [len(row) for row in wanted] == [width] * 5, fig
    wanted = _numeric_rows(generated, "Write bandwidth, easy vs hard:")
    found = _numeric_rows(document.split("## §IV/§V", 1)[1], "| system |")
    assert len(wanted) == 2
    for generated_row, (fpp, shared, ratio) in zip(wanted, found):
        assert [fpp, shared] == generated_row
        assert ratio == round(shared / fpp, 2)
