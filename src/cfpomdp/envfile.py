"""Line-oriented text format for environments.

    # comment
    states: <id> <id> ...
    actions: <id> ...
    observations: <id> ...
    init: <state> <rat> [| <state> <rat> ...]
    obs: <state> -> <observation> <rat> [| ...]          (one line per state)
    trans: <state> <action> -> <state> <rat> [| ...]     (one line per (state, action))

Rationals are written ``p/q`` (or a bare integer); decimals are rejected so
that files stay exact.  Parsing validates by default and round-trips with
`serialize_env`.
"""

from __future__ import annotations

from pathlib import Path

from .core import FiniteDist, Pomdp, parse_rational, validate
from .errors import EnvFileError, InputError, ValidationError


def _parse_dist(body: str, lineno: int) -> FiniteDist:
    """One distribution row; a bad rational or a repeated id names the line."""
    entries = []
    try:
        for part in body.split("|"):
            tokens = part.split()
            if len(tokens) != 2:
                raise EnvFileError(lineno, f"expected '<id> <rational>', got {part.strip()!r}")
            entries.append((tokens[0], parse_rational(tokens[1])))
        return FiniteDist(tuple(entries))
    except InputError as exc:
        raise EnvFileError(lineno, str(exc)) from None


# Row keywords: the number of head tokens before '->' and how to name them.
_ROWS = {"obs": (1, "one state"), "trans": (2, "state and action")}
_DECLARATIONS = ("states", "actions", "observations", "init")


def parse_env(text: str, validate_result: bool = True) -> Pomdp:
    """Parse an environment; raise `EnvFileError` (with a line number) on
    syntax problems and `ValidationError` on invariant violations unless
    `validate_result` is off."""
    declared: dict[str, list | FiniteDist] = {}
    rows: dict[str, dict[tuple[str, ...], FiniteDist]] = {k: {} for k in _ROWS}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise EnvFileError(lineno, f"expected '<keyword>: ...', got {raw.strip()!r}")
        keyword, body = (part.strip() for part in line.split(":", 1))
        if keyword in _DECLARATIONS:
            if not body and keyword != "init":
                raise EnvFileError(lineno, f"empty {keyword} declaration")
            if keyword in declared:
                raise EnvFileError(lineno, f"duplicate {keyword} declaration")
            declared[keyword] = _parse_dist(body, lineno) if keyword == "init" else body.split()
        elif keyword in _ROWS:
            width, heads = _ROWS[keyword]
            if "->" not in body:
                raise EnvFileError(lineno, f"{keyword} line needs '->'")
            head, dist_body = body.split("->", 1)
            key = tuple(head.split())
            if len(key) != width:
                raise EnvFileError(
                    lineno, f"{keyword} line needs {heads} before '->', got {head.strip()!r}"
                )
            if key in rows[keyword]:
                name = key[0] if width == 1 else f"({', '.join(key)})"
                raise EnvFileError(lineno, f"duplicate {keyword} row for {name}")
            rows[keyword][key] = _parse_dist(dist_body, lineno)
        else:
            raise EnvFileError(lineno, f"unknown keyword {keyword!r}")

    for name in _DECLARATIONS:
        if name not in declared:
            raise EnvFileError(0, f"missing {name} declaration")

    p = Pomdp.build(
        declared["states"],
        declared["actions"],
        declared["observations"],
        declared["init"],
        rows["trans"],
        {s: d for (s,), d in rows["obs"].items()},
    )
    if validate_result:
        violations = validate(p)
        if violations:
            raise ValidationError(violations)
    return p


def serialize_env(p: Pomdp) -> str:
    """Canonical text form; `parse_env(serialize_env(p))` equals `p`."""

    def dist(d: FiniteDist) -> str:
        return " | ".join(f"{k} {v}" for k, v in d.entries)

    lines = [
        "states: " + " ".join(p.states),
        "actions: " + " ".join(p.actions),
        "observations: " + " ".join(p.observations),
        "init: " + dist(p.init),
    ]
    for s, d in p.obs:
        lines.append(f"obs: {s} -> {dist(d)}")
    for (s, a), d in p.trans:
        lines.append(f"trans: {s} {a} -> {dist(d)}")
    return "\n".join(lines) + "\n"


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; bytes that do not decode are an
    `InputError` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_env(path: str | Path, validate_result: bool = True) -> Pomdp:
    return parse_env(read_text(path), validate_result=validate_result)


def save_env(path: str | Path, p: Pomdp) -> None:
    Path(path).write_text(serialize_env(p), encoding="utf-8")
