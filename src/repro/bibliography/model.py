"""Reference records and the bibliography registry.

The paper cites 124 works; case studies in the corpus point at them by
reference number (e.g. the Carna scan row cites [18]). The bibliography
provides lookup by number or citation key and simple citation
formatting used by the report generators.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator

from .._util import slugify
from ..errors import BibliographyError

__all__ = ["Reference", "Bibliography", "ReferenceType"]


class ReferenceType:
    """String constants categorising a reference."""

    PAPER = "paper"  # peer-reviewed paper
    TECH_REPORT = "tech-report"
    BOOK = "book"
    THESIS = "thesis"
    LAW = "law"  # statute, regulation or court ruling
    WEB = "web"  # blog post, news article, web page
    RFC = "rfc"
    TALK = "talk"
    DATASET = "dataset"

    ALL = (
        PAPER,
        TECH_REPORT,
        BOOK,
        THESIS,
        LAW,
        WEB,
        RFC,
        TALK,
        DATASET,
    )


@dataclasses.dataclass(frozen=True)
class Reference:
    """One bibliography entry.

    Attributes
    ----------
    number:
        The bracketed reference number in the paper, 1..124.
    key:
        A stable citation key, e.g. ``"dittrich2012menlo"``.
    authors:
        Author (or institution) names, in order.
    year:
        Publication year; 0 for undated web resources.
    title:
        Title of the work.
    venue:
        Venue / publisher / source (may be empty for laws).
    type:
        One of :class:`ReferenceType`.
    doi:
        DOI string when the paper records one.
    """

    number: int
    key: str
    authors: tuple[str, ...]
    year: int
    title: str
    venue: str = ""
    type: str = ReferenceType.PAPER
    doi: str = ""

    def __post_init__(self) -> None:
        if self.number < 1:
            raise BibliographyError("reference number must be >= 1")
        if not self.key or self.key != slugify(self.key):
            raise BibliographyError(
                f"reference key {self.key!r} must be a slug"
            )
        if self.type not in ReferenceType.ALL:
            raise BibliographyError(
                f"unknown reference type {self.type!r} for [{self.number}]"
            )
        if not self.title:
            raise BibliographyError(f"reference [{self.number}] needs title")

    @property
    def is_peer_reviewed(self) -> bool:
        """Peer-reviewed in the loose sense used by the paper's Table 1.

        The paper marks non-peer-reviewed works with footnote ``a``; at
        the bibliography level we treat papers and RFCs as peer reviewed
        and everything else as not.
        """
        return self.type in (ReferenceType.PAPER, ReferenceType.RFC)

    def cite(self) -> str:
        """Short inline citation: ``Author et al. (Year)``."""
        if not self.authors:
            head = self.title
        elif len(self.authors) == 1:
            head = self.authors[0]
        elif len(self.authors) == 2:
            head = f"{self.authors[0]} and {self.authors[1]}"
        else:
            head = f"{self.authors[0]} et al."
        year = str(self.year) if self.year else "n.d."
        return f"{head} ({year})"

    def format(self) -> str:
        """Full one-line bibliography entry."""
        authors = ", ".join(self.authors) if self.authors else "Anon."
        year = str(self.year) if self.year else "n.d."
        parts = [f"[{self.number}]", f"{authors}.", f"{year}.", self.title + "."]
        if self.venue:
            parts.append(self.venue + ".")
        if self.doi:
            parts.append(f"doi:{self.doi}")
        return " ".join(parts)


class Bibliography:
    """Registry of :class:`Reference` records with number/key lookup."""

    def __init__(self, references: Iterable[Reference]) -> None:
        self._by_number: dict[int, Reference] = {}
        self._by_key: dict[str, Reference] = {}
        for ref in references:
            if ref.number in self._by_number:
                raise BibliographyError(
                    f"duplicate reference number {ref.number}"
                )
            if ref.key in self._by_key:
                raise BibliographyError(f"duplicate reference key {ref.key!r}")
            self._by_number[ref.number] = ref
            self._by_key[ref.key] = ref

    def __iter__(self) -> Iterator[Reference]:
        return iter(
            self._by_number[n] for n in sorted(self._by_number)
        )

    def __len__(self) -> int:
        return len(self._by_number)

    def __contains__(self, key: int | str) -> bool:
        if isinstance(key, int):
            return key in self._by_number
        return key in self._by_key

    def __getitem__(self, key: int | str) -> Reference:
        try:
            if isinstance(key, int):
                return self._by_number[key]
            return self._by_key[key]
        except KeyError:
            raise BibliographyError(f"unknown reference {key!r}") from None

    def by_type(self, type: str) -> tuple[Reference, ...]:
        return tuple(r for r in self if r.type == type)

    def by_year(self, year: int) -> tuple[Reference, ...]:
        return tuple(r for r in self if r.year == year)

    def search(self, text: str) -> tuple[Reference, ...]:
        """Case-insensitive substring search over titles and authors."""
        needle = text.lower()
        return tuple(
            r
            for r in self
            if needle in r.title.lower()
            or any(needle in a.lower() for a in r.authors)
        )
