"""Reading and writing ranking documents.

Text format, one statement per line, best class first::

    # comments and blank lines are ignored
    universe: 1 2 3
    class: {1,2} {1,3} {1,2,3}
    class: {1} {2} {3} {2,3}

Individual names are arbitrary non-whitespace tokens without commas or
braces; a coalition is a brace-enclosed, comma-separated list of names.
Whitespace within a line is insignificant. Parsing then rendering is the
identity on canonical rankings: ``parse_ranking(render_ranking(r)) == r``.

A JSON mirror of the same structure is accepted as well:
``{"universe": ["1", "2", "3"], "classes": [[["1", "2"], ["1", "3"]], ...]}``.
"""

from __future__ import annotations

import json
import re

from .core import CoalitionalRanking, Universe, mask_members, members_mask, validate_ranking
from .errors import RankingSyntaxError

_COALITION = re.compile(r"\{([^{}]*)\}|(\S)")
_NAME_FORBIDDEN = re.compile(r"[{},\s]")


def parse_ranking(text: str) -> CoalitionalRanking:
    """Parse a ranking document, validating the full partition structure."""
    universe = None
    classes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("universe:"):
            if universe is not None:
                raise RankingSyntaxError("duplicate universe declaration", lineno)
            names = line[len("universe:"):].split()
            if not names:
                raise RankingSyntaxError("universe declaration names no individuals", lineno)
            for name in names:
                if _NAME_FORBIDDEN.search(name):
                    raise RankingSyntaxError(
                        f"invalid individual name {name!r}", lineno, raw.find(name) + 1
                    )
            try:
                universe = Universe(len(names), tuple(names))
            except ValueError as exc:
                raise RankingSyntaxError(str(exc), lineno) from None
        elif line.startswith("class:"):
            if universe is None:
                raise RankingSyntaxError(
                    "class line before the universe declaration", lineno
                )
            classes.append(_parse_class(line[len("class:"):], universe, lineno, raw))
        else:
            raise RankingSyntaxError(
                f"expected 'universe:' or 'class:', got {line.split()[0]!r}", lineno, 1
            )
    if universe is None:
        raise RankingSyntaxError("missing 'universe:' line")
    if not classes:
        raise RankingSyntaxError("no 'class:' lines")
    return validate_ranking(classes, universe)


def _parse_class(body: str, universe: Universe, lineno: int, raw: str):
    masks = []
    for match in _COALITION.finditer(body):
        if match.group(2) is not None:
            col = raw.find(body) + match.start() + 1
            raise RankingSyntaxError(
                f"unexpected character {match.group(2)!r} outside braces", lineno, col
            )
        names = [t.strip() for t in match.group(1).split(",")] if match.group(1).strip() else []
        members = [universe.id_of(name) for name in names if name]
        if len(members) != len(names) or not names:
            raise RankingSyntaxError("empty coalition or empty member name", lineno)
        masks.append(members_mask(members, universe))
    if not masks:
        raise RankingSyntaxError("class line lists no coalitions", lineno)
    return masks


def render_ranking(ranking: CoalitionalRanking) -> str:
    """Render a ranking in the text format, classes best first."""
    universe = ranking.universe
    lines = ["universe: " + " ".join(universe.names)]
    for cls in ranking.classes:
        parts = [
            "{" + ",".join(universe.names[i] for i in mask_members(mask, universe.n)) + "}"
            for mask in cls
        ]
        lines.append("class: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _list_of(is_item):
    return lambda value: isinstance(value, list) and all(is_item(item) for item in value)


_is_names = _list_of(
    lambda value: isinstance(value, str) and value and not _NAME_FORBIDDEN.search(value)
)
_is_classes = _list_of(_list_of(_is_names))


def parse_ranking_json(document) -> CoalitionalRanking:
    """Parse the JSON mirror of the text format (dict or JSON string).

    ``universe`` must be a list of distinct names, each a nonempty string
    that is a valid name in the text format, and ``classes`` a list of
    classes, each a list of coalitions, each a list of names.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise RankingSyntaxError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict) or "universe" not in document or "classes" not in document:
        raise RankingSyntaxError("JSON ranking needs 'universe' and 'classes' keys")
    names, classes = document["universe"], document["classes"]
    if not _is_names(names):
        raise RankingSyntaxError("'universe' must be a list of valid individual names")
    try:
        universe = Universe(len(names), tuple(names))
    except ValueError as exc:
        raise RankingSyntaxError(f"bad universe: {exc}") from None
    if not _is_classes(classes):
        raise RankingSyntaxError("'classes' must be a list of lists of coalitions (lists of names)")
    classes = [
        [members_mask([universe.id_of(name) for name in coalition], universe)
         for coalition in cls]
        for cls in classes
    ]
    return validate_ranking(classes, universe)


def load_ranking(path: str) -> CoalitionalRanking:
    """Load a ranking file, JSON when the suffix is .json, text otherwise."""
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    if path.endswith(".json"):
        return parse_ranking_json(content)
    return parse_ranking(content)
