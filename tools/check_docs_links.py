#!/usr/bin/env python
"""Check relative links and anchors in the repo's markdown documentation.

Scans the documentation set (README.md, DESIGN.md, EXPERIMENTS.md, and
everything under docs/) for ``[text](target)`` links and verifies:

* relative file targets exist (relative to the containing file),
* ``#anchor`` fragments — same-file or on a linked markdown file — match a
  heading in the target (GitHub slug rules),
* no link points outside the repository.

External links (``http://``, ``https://``, ``mailto:``) are skipped — CI
must not flake on someone else's server.

Additionally enforces **module coverage**: every module under
``src/repro/noc/``, ``src/repro/faults/``, ``src/repro/service/`` and
``src/repro/cli/`` must be referenced from at least one page in ``docs/``
(as ``noc/<mod>.py``, ``noc.<mod>``, or inside a ``noc/{a,b}.py`` brace
group — likewise for the other three), so new simulator, fault-model,
campaign-service and subcommand modules cannot land undocumented.

Exits non-zero listing every broken link or uncovered module.  Also usable
as a library (``tests/test_docs_links.py``).
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Dict, List, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
DOC_DIRS = ["docs"]

#: Inline markdown links.  Deliberately simple: no nested parentheses in
#: targets (none of our docs need them), images share the same syntax.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)
CODE_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def doc_files() -> List[pathlib.Path]:
    files = [REPO_ROOT / name for name in DOC_FILES if (REPO_ROOT / name).exists()]
    for dirname in DOC_DIRS:
        files.extend(sorted((REPO_ROOT / dirname).glob("**/*.md")))
    return files


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's heading-to-anchor slug, with duplicate numbering."""
    # Inline code/emphasis markers disappear, then punctuation (except
    # hyphens/underscores), then spaces become hyphens.
    text = re.sub(r"[`*]", "", heading.lower())
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    n = seen.get(slug, 0)
    seen[slug] = n + 1
    return slug if n == 0 else f"{slug}-{n}"


def anchors_of(markdown_path: pathlib.Path) -> Set[str]:
    text = CODE_FENCE.sub("", markdown_path.read_text())
    seen: Dict[str, int] = {}
    return {github_slug(h, seen) for h in HEADING.findall(text)}


def check_file(path: pathlib.Path) -> List[str]:
    problems = []
    text = CODE_FENCE.sub("", path.read_text())
    rel = path.relative_to(REPO_ROOT)
    for target in LINK.findall(text):
        if target.startswith(SKIP_SCHEMES):
            continue
        target, _, fragment = target.partition("#")
        if not target:
            # Same-file anchor.
            if fragment and fragment not in anchors_of(path):
                problems.append(f"{rel}: broken anchor #{fragment}")
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.is_relative_to(REPO_ROOT):
            problems.append(f"{rel}: link escapes the repository: {target}")
            continue
        if not resolved.exists():
            problems.append(f"{rel}: broken link {target}")
            continue
        if fragment:
            if resolved.suffix.lower() != ".md":
                problems.append(
                    f"{rel}: anchor on non-markdown target {target}#{fragment}"
                )
            elif fragment not in anchors_of(resolved):
                problems.append(f"{rel}: broken anchor {target}#{fragment}")
    return problems


#: Directories whose modules every docs page set must cover, relative to
#: the repo root.
MODULE_DIRS = [
    "src/repro/noc",
    "src/repro/faults",
    "src/repro/service",
    "src/repro/cli",
]

#: How a docs page may reference a module: ``noc/kernel.py``,
#: ``repro.noc.kernel``, or a brace group like ``noc/{flit,packet}.py``
#: (the dependency diagram's idiom) — and the same three shapes under
#: the other directories.  Scanned on raw text — the ARCHITECTURE.md
#: diagram lives inside a code fence.
MODULE_REF = re.compile(
    r"(?:noc|faults|service|cli)/\{([\w,]+)\}\.py"
    r"|(?:noc|faults|service|cli)/(\w+)\.py"
    r"|(?:noc|faults|service|cli)\.(\w+)"
)


def check_module_coverage() -> List[str]:
    problems = []
    pages = [
        path
        for path in doc_files()
        if path.parent != REPO_ROOT  # pages under docs/, not top-level
    ]
    referenced: Set[str] = set()
    for path in pages:
        for match in MODULE_REF.finditer(path.read_text()):
            group, single, dotted = match.groups()
            if group:
                referenced.update(group.split(","))
            else:
                referenced.add(single or dotted)
    for dirname in MODULE_DIRS:
        for module in sorted((REPO_ROOT / dirname).glob("*.py")):
            if module.stem != "__init__" and module.stem not in referenced:
                problems.append(
                    f"{dirname}/{module.name} is not referenced from any "
                    "page under docs/"
                )
    return problems


#: Pages the documentation set must always carry (each is the reference
#: for a subsystem CI gates on); deleting one fails the link check even
#: though no link would dangle after an index edit.
REQUIRED_PAGES = [
    "docs/ARCHITECTURE.md",
    "docs/PERFORMANCE.md",
    "docs/KERNEL.md",
    "docs/OBSERVABILITY.md",
    "docs/CHECKPOINTING.md",
    "docs/VERIFICATION.md",
    "docs/FAULTS.md",
    "docs/TOPOLOGY.md",
    "docs/CAMPAIGNS.md",
]


def check_required_pages() -> List[str]:
    return [
        f"required documentation page {page} is missing"
        for page in REQUIRED_PAGES
        if not (REPO_ROOT / page).exists()
    ]


def check_all() -> List[str]:
    problems = []
    for path in doc_files():
        problems.extend(check_file(path))
    problems.extend(check_module_coverage())
    problems.extend(check_required_pages())
    return problems


def main() -> int:
    files = doc_files()
    problems = check_all()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"checked {len(files)} files, {len(problems)} problems "
        "(broken links/anchors + undocumented modules)",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
