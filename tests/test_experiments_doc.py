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


# ------------------------------------------------- Figure 1 shape claims
INTERFACES = ("DAOS", "MPI-IO", "HDF5")
CLASSES = ("S1", "S2", "SX")
NODES = (1, 2, 4, 8, 16)
#: "leads or ties": a class within 1 % of the row's best ties it
TIE = 0.01
#: "falls to S1's level": S2 within 5 % of S1
LEVEL = 0.05
#: the rows EXPERIMENTS.md lists as mismatches with the quoted claims
MISMATCHES = {
    ("1b", "HDF5 at 0.30-0.50x of DFS", "S1", 8),
    ("1b", "HDF5 at 0.30-0.50x of DFS", "S1", 16),
    ("1b", "HDF5 at 0.30-0.50x of DFS", "S2", 16),
    ("1b", "HDF5 at 0.30-0.50x of DFS", "SX", 16),
    ("1a", "SX trails S2", "HDF5", 16),
}


def _figure(text, fig):
    """``{(series label, nodes): GiB/s}`` of one generated table."""
    lines = text.split(f"Fig {fig}: ", 1)[1].split("\n\n", 1)[0].splitlines()
    labels = [cell.strip() for cell in lines[2].split("|")[1:]]
    cells = {}
    for line in lines[4:]:
        nodes, *values = line.split("|")
        for label, value in zip(labels, values):
            cells[(label, int(nodes))] = float(value)
    return cells


def _fig1_claim_failures(read, write):
    """``{(figure, claim, series, nodes): the numbers that break it}`` for
    every row where a ✓ claim of EXPERIMENTS.md's Figure 1 sections does
    not hold."""
    failures = {}
    for api in INTERFACES:
        def at(fig, cls, nodes):
            return fig[(f"{api} {cls}", nodes)]

        def by_class(fig, nodes):
            return {cls: at(fig, cls, nodes) for cls in CLASSES}

        for nodes in NODES:
            row = by_class(read, nodes)
            if row["S2"] < (1 - TIE) * max(row.values()):
                failures[("1a", "S2 leads or ties", api, nodes)] = ""
            if not row["SX"] < row["S2"]:
                failures[("1a", "SX trails S2", api, nodes)] = (
                    f"{row['SX']:.2f} vs {row['S2']:.2f}")
            row = by_class(write, nodes)
            best, worst = max(row, key=row.get), min(row, key=row.get)
            if nodes <= 4 and best != "S2":
                failures[("1b", "S2 best at 1-4 nodes", api, nodes)] = ""
            if nodes >= 8 and best != "SX":  # so S2 is overtaken there
                failures[("1b", "SX best at 8-16 nodes", api, nodes)] = ""
            if nodes == 1 and worst != "SX":
                failures[("1b", "SX worst at 1 node", api, nodes)] = ""
            if nodes == 16 and abs(row["S2"] / row["S1"] - 1) > LEVEL:
                failures[("1b", "S2 falls to S1's level", api, nodes)] = ""
        gap = {n: at(read, "S2", n) / at(read, "S1", n) for n in NODES}
        if max(gap, key=gap.get) not in (2, 4, 8):
            failures[("1a", "S2-S1 gap widest at 2-8 nodes", api, None)] = ""
        spread = {n: max(by_class(read, n).values())
                  / min(by_class(read, n).values()) for n in NODES}
        if min(spread, key=spread.get) != 16:
            failures[("1a", "classes compress at 16 nodes", api, None)] = ""
    for fig, cells in (("1a", read), ("1b", write)):
        for cls in CLASSES:
            for nodes in NODES:
                dfs, mpiio, hdf5 = (cells[(f"{api} {cls}", nodes)]
                                    for api in INTERFACES)
                if not dfs >= mpiio >= hdf5:
                    failures[(fig, "DFS >= MPI-IO >= HDF5", cls, nodes)] = ""
                if fig == "1a" and abs(dfs / mpiio - 1) > 0.02:
                    failures[(fig, "DFS within 2 % of MPI-IO", cls, nodes)] = ""
                if not 0.30 <= hdf5 / dfs <= 0.50:
                    failures[(fig, "HDF5 at 0.30-0.50x of DFS", cls, nodes)] = (
                        f"{hdf5 / dfs:.3f}")
    return failures


def test_fig1_claims_hold_on_every_paper_scale_row_but_the_listed():
    generated = (REPO / "figures_full.txt").read_text()
    failures = _fig1_claim_failures(_figure(generated, "1a"),
                                    _figure(generated, "1b"))
    assert set(failures) == MISMATCHES
    # each one is listed, with its numbers, under Figure 1b's mismatches
    listed = (REPO / "EXPERIMENTS.md").read_text().split(
        "Mismatches with the claims above", 1)[1].split("\n\n", 1)[0]
    for key, numbers in failures.items():
        assert numbers and numbers in listed, key


# ---------------------------------- Figure 2 and contrast shape claims
#: "similar performance achieved across interfaces": a row's spread,
#: (max - min) / max, is at most 8 %
SPREAD = 0.08
#: "file-per-process and shared-file give similar overall performance":
#: DFS/SX shared (Fig. 2) within 25 % of file-per-process (Fig. 1)
SIMILAR = 0.25
#: the Lustre shared file "collapses by ~9x": at least 8x below fpp
COLLAPSE = 8


def _fig2_claim_failures(generated):
    """``{(figure, claim, nodes): the numbers that break it}`` for every
    row where a ✓ claim of EXPERIMENTS.md's Figure 2 or contrast
    sections does not hold."""
    failures = {}
    for fig, fpp_fig in (("2a", "1a"), ("2b", "1b")):
        shared, fpp = _figure(generated, fig), _figure(generated, fpp_fig)
        for nodes in NODES:
            row = {api: shared[(api, nodes)] for api in INTERFACES}
            best, worst = max(row.values()), min(row.values())
            if (best - worst) / best > SPREAD:
                failures[(fig, "spread <= 8 %", nodes)] = (
                    f"{(best - worst) / best:.4f}")
            if row["DAOS"] != best:
                failures[(fig, "DFS tops every row", nodes)] = ""
            ratio = row["DAOS"] / fpp[("DAOS SX", nodes)]
            if abs(ratio - 1) > SIMILAR:
                failures[(fig, "shared ~ fpp", nodes)] = f"{ratio:.3f}"
    contrast = _numeric_rows(generated, "Write bandwidth, easy vs hard:")
    (daos_fpp, daos_shared), (lustre_fpp, lustre_shared) = contrast
    if daos_shared < daos_fpp:
        failures[("contrast", "DAOS hard costs nothing", None)] = ""
    if lustre_fpp < COLLAPSE * lustre_shared:
        failures[("contrast", "Lustre shared collapses", None)] = ""
    return failures


def test_fig2_and_contrast_claims_hold_on_every_paper_scale_row():
    generated = (REPO / "figures_full.txt").read_text()
    assert _fig2_claim_failures(generated) == {}
