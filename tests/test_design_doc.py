"""DESIGN.md cannot drift from the package list or from its citations.

DESIGN.md describes the stack once, by layer: every ``src/repro``
package is named in exactly one ``##`` heading, every ``§N`` / ``§N.M``
citation (in the document itself and as ``DESIGN.md §N`` anywhere in
the tree) names a heading that exists, headings name no PR, and README.md
(usage only) repeats no paragraph of it. Reads files only; no simulation.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
DESIGN = REPO / "DESIGN.md"
README = REPO / "README.md"
#: where ``DESIGN.md §N`` citations may appear
CITING = ("src", "tests", "examples", "benchmarks")
CITING_FILES = ("README.md", "EXPERIMENTS.md", "Makefile")
#: a backticked package in a heading: `repro.daos`, `repro.daos.eq`, ...
PACKAGE = re.compile(r"`repro\.(\w+)[`.]")
SECTION = re.compile(r"^(#{2,3}) (\d+(?:\.\d+)?)[. ]")
#: a section number after "DESIGN.md" (or "DESIGN"), possibly across a line
CITATION = re.compile(r"DESIGN(?:\.md)?`?\s+§(\d+(?:\.\d+)?)")
BARE_CITATION = re.compile(r"§(\d+(?:\.\d+)?)")
MAX_LINES = 600


def _headings(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def _packages():
    return sorted(path.parent.name
                  for path in (REPO / "src" / "repro").glob("*/__init__.py"))


def _sections(text):
    return {match.group(2) for line in _headings(text)
            if (match := SECTION.match(line))}


def _paragraphs(text):
    """Blank-line separated blocks outside code fences, whitespace
    collapsed, so a re-wrapped copy still matches."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    blocks = (" ".join(block.split()) for block in text.split("\n\n"))
    return [block for block in blocks if len(block) >= 60]


def test_every_package_is_named_in_exactly_one_top_heading():
    top = [line for line in _headings(DESIGN.read_text())
           if line.startswith("## ")]
    named = {}
    for line in top:
        for package in set(PACKAGE.findall(line)):
            named.setdefault(package, []).append(line)
    packages = _packages()
    assert len(packages) >= 20
    for package in packages:
        assert len(named.get(package, [])) == 1, (package, named.get(package))
    assert set(named) <= set(packages), set(named) - set(packages)


def test_every_section_citation_resolves():
    design = DESIGN.read_text()
    sections = _sections(design)
    assert {str(n) for n in range(1, 11)} <= sections
    cited = {(DESIGN.name, number) for number in BARE_CITATION.findall(design)}
    paths = [REPO / name for name in CITING_FILES]
    for root in CITING:
        paths += [path for path in (REPO / root).rglob("*")
                  if path.suffix in (".py", ".md") and path.is_file()]
    for path in paths:
        for number in CITATION.findall(path.read_text(encoding="utf-8")):
            cited.add((str(path.relative_to(REPO)), number))
    dangling = sorted((where, number) for where, number in cited
                      if number not in sections)
    assert not dangling


def test_no_heading_names_a_pr():
    for line in _headings(DESIGN.read_text()):
        assert not re.search(r"\bPRs?\s*#?\d", line), line


def test_readme_repeats_no_design_paragraph():
    design = _paragraphs(DESIGN.read_text())
    readme = _paragraphs(README.read_text())
    design_text = " ".join(design)
    readme_text = " ".join(readme)
    assert not [p for p in design if p in readme_text]
    assert not [p for p in readme if p in design_text]


def test_design_stays_under_its_line_budget():
    assert len(DESIGN.read_text().splitlines()) < MAX_LINES
