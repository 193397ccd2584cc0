"""Documentation gate: markdown link check + docstring coverage.

Two checks, both stdlib-only so the CI docs job needs no installs:

* **Link check** — every relative markdown link in ``README.md``,
  ``ROADMAP.md`` and ``docs/*.md`` must point at a file that exists
  (anchors are stripped; ``http(s)``/``mailto`` targets are skipped so
  the gate stays offline-deterministic).
* **Doc coverage** — every *public* module, class, function and method
  in the packages listed in :data:`DOC_COVERAGE_PACKAGES` (the product
  surface — serving, streaming — and the layers it stands on: cluster,
  parallel, fusion, the core kernels, data with its shared binary
  framing, and the synth / sampling side packages)
  must carry a docstring.  Parsed with :mod:`ast`, so nothing is imported and
  missing optional deps can't mask a gap.  Names with a leading
  underscore, ``__init__`` (the class docstring covers construction)
  and other dunders are exempt.

Run it locally::

    python tools/check_docs.py

Exit code 0 when both checks pass; 1 with a per-finding report
otherwise.  CI runs this as the ``docs`` job.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
MARKDOWN = ["README.md", "ROADMAP.md", "docs"]

#: Packages whose public surface must be fully docstringed.
DOC_COVERAGE_PACKAGES = [
    "src/repro/cluster",
    "src/repro/core",
    "src/repro/data",
    "src/repro/fusion",
    "src/repro/parallel",
    "src/repro/sampling",
    "src/repro/serving",
    "src/repro/streaming",
    "src/repro/synth",
]

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no support for angle-bracket or reference-style links; add it when
#: a doc needs one).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_markdown_files() -> list[Path]:
    files: list[Path] = []
    for entry in MARKDOWN:
        path = REPO / entry
        if path.is_dir():
            files.extend(sorted(path.glob("*.md")))
        elif path.is_file():
            files.append(path)
    return files


def check_links() -> list[str]:
    """Return one finding per broken relative link."""
    findings: list[str] = []
    for md in iter_markdown_files():
        for lineno, line in enumerate(
            md.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:  # pure in-page anchor
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    findings.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link "
                        f"-> {target}"
                    )
    return findings


def _public_defs(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Yield (qualified name, node) for every public def/class."""
    out: list[tuple[str, ast.AST]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = child.name
                if name.startswith("_"):  # private or dunder: exempt
                    continue
                qualified = f"{prefix}{name}"
                out.append((qualified, child))
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qualified}.")

    walk(tree, "")
    return out


def check_doc_coverage() -> tuple[list[str], int]:
    """Return (findings, number of public definitions checked)."""
    findings: list[str] = []
    checked = 0
    for package in DOC_COVERAGE_PACKAGES:
        for source in sorted((REPO / package).glob("*.py")):
            tree = ast.parse(
                source.read_text(encoding="utf-8"), filename=str(source)
            )
            rel = source.relative_to(REPO)
            if ast.get_docstring(tree) is None:
                findings.append(f"{rel}:1: module has no docstring")
            checked += 1
            for name, node in _public_defs(tree):
                checked += 1
                if ast.get_docstring(node) is None:
                    findings.append(
                        f"{rel}:{node.lineno}: public "
                        f"{'class' if isinstance(node, ast.ClassDef) else 'function'} "
                        f"{name!r} has no docstring"
                    )
    return findings, checked


def main() -> int:
    link_findings = check_links()
    doc_findings, checked = check_doc_coverage()
    for finding in link_findings + doc_findings:
        print(f"FAIL  {finding}")
    n_md = len(iter_markdown_files())
    print(
        f"links: {n_md} markdown files checked, "
        f"{len(link_findings)} broken"
    )
    print(
        f"docstrings: {checked} public definitions checked in "
        f"{', '.join(DOC_COVERAGE_PACKAGES)}, {len(doc_findings)} missing"
    )
    ok = not link_findings and not doc_findings
    print("docs gate:", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
