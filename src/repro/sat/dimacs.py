"""DIMACS escape hatch: named export/import of formulas and attempts.

The flat-arena CDCL solver tops out around half a million propagations per
second — three orders of magnitude below a system Kissat.  This module is the
first half of the external-solving layer (the second half is
:mod:`repro.sat.external`): it serialises any encoded mapping attempt, or a
live backend's accumulated clause set, to standard DIMACS CNF *without losing
the variable names*.  Names travel in two redundant forms:

* ``c varmap <var> <name>`` comment lines inside the ``.cnf`` file itself, so
  a lone file handed to a solver author stays self-describing; and
* a sidecar ``<file>.varmap.json`` next to the export, which survives solvers
  that strip comments and is cheap to load without scanning the CNF.

Assumption literals are appended as unit clauses (*unit cubes*) — the only
portable way to steer a non-incremental external solver — and recorded in a
``c cube`` comment so an import can split them back out of the clause list.
With the map and the cube intact, an external model can be projected back
onto mapper variables and replayed through ``MappingEncoding.decode`` and the
simulator exactly as if the internal solver had produced it.

Round-trip guarantee (property-tested): ``dumps`` output is a fixpoint, i.e.
``dumps(loads(dumps(doc))) == dumps(doc)``.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.sat.cnf import CNF, flatten

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.encoder import MappingEncoding

__all__ = [
    "VarMap",
    "DimacsDocument",
    "dumps",
    "loads",
    "write_document",
    "read_document",
    "attempt_varmap",
    "export_encoding",
    "export_backend",
    "project_model",
]

_VARMAP_PREFIX = "c varmap "
_CUBE_PREFIX = "c cube "
SIDECAR_SUFFIX = ".varmap.json"


class VarMap:
    """A bidirectional map between DIMACS variables and symbolic names.

    Names are arbitrary non-empty strings without whitespace or newlines
    (they must survive a ``c varmap <var> <name>`` comment line).  Both
    directions are enforced injective: one name per variable, one variable
    per name.
    """

    def __init__(self, entries: Mapping[int, str] | None = None) -> None:
        self._by_var: dict[int, str] = {}
        self._by_name: dict[str, int] = {}
        if entries:
            for var, name in entries.items():
                self.bind(var, name)

    def bind(self, var: int, name: str) -> None:
        """Associate ``var`` with ``name`` (both must be unused)."""
        if var <= 0:
            raise ValueError(f"variables must be positive, got {var}")
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"invalid varmap name {name!r}")
        if var in self._by_var and self._by_var[var] != name:
            raise ValueError(f"variable {var} already named {self._by_var[var]!r}")
        if name in self._by_name and self._by_name[name] != var:
            raise ValueError(f"name {name!r} already bound to {self._by_name[name]}")
        self._by_var[var] = name
        self._by_name[name] = var

    def name(self, var: int) -> str | None:
        return self._by_var.get(var)

    def var(self, name: str) -> int | None:
        return self._by_name.get(name)

    def __len__(self) -> int:
        return len(self._by_var)

    def __contains__(self, var: int) -> bool:
        return var in self._by_var

    def items(self) -> Iterable[tuple[int, str]]:
        return self._by_var.items()

    def comment_lines(self) -> list[str]:
        """``c varmap`` lines in ascending variable order (canonical form)."""
        return [
            f"{_VARMAP_PREFIX}{var} {name}"
            for var, name in sorted(self._by_var.items())
        ]

    # -- sidecar serialisation -----------------------------------------
    def to_json(self) -> str:
        payload = {str(var): name for var, name in sorted(self._by_var.items())}
        return json.dumps({"varmap": payload}, indent=0, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VarMap":
        data = json.loads(text)
        entries = {int(var): str(name) for var, name in data["varmap"].items()}
        return cls(entries)


@dataclass
class DimacsDocument:
    """A CNF formula plus its variable names and assumption cube.

    ``cube`` holds assumption literals that were (or will be) appended to the
    serialised formula as unit clauses; they are *not* part of ``cnf``.
    ``comments`` carries free-form comment lines (without the leading
    ``c ``) that are reproduced verbatim at the top of the export.
    """

    cnf: CNF
    varmap: VarMap = field(default_factory=VarMap)
    cube: tuple[int, ...] = ()
    comments: tuple[str, ...] = ()

    @property
    def num_vars(self) -> int:
        return self.cnf.num_vars

    def named_model(self, model: Mapping[int, bool]) -> dict[str, bool]:
        """Project a ``{var: bool}`` model onto the mapped names."""
        out: dict[str, bool] = {}
        for var, name in self.varmap.items():
            if var in model:
                out[name] = model[var]
        return out


def dumps(doc: DimacsDocument) -> str:
    """Serialise ``doc`` to canonical DIMACS text.

    Canonical layout: free comments, varmap comments (ascending variable
    order), cube comment (if any), problem line, clauses, cube unit clauses.
    The declared clause count includes the cube units so the file is valid
    standalone input for any DIMACS solver.
    """
    lines: list[str] = [f"c {text}" if text else "c" for text in doc.comments]
    lines.extend(doc.varmap.comment_lines())
    if doc.cube:
        lines.append(_CUBE_PREFIX + " ".join(str(lit) for lit in doc.cube) + " 0")
    num_clauses = doc.cnf.num_clauses + len(doc.cube)
    lines.append(f"p cnf {doc.cnf.num_vars} {num_clauses}")
    for clause in doc.cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    for lit in doc.cube:
        lines.append(f"{lit} 0")
    return "\n".join(lines) + "\n"


def loads(text: str) -> DimacsDocument:
    """Parse DIMACS text (with optional varmap/cube comments) back.

    Cube literals recorded in the ``c cube`` comment are split back out of
    the trailing unit clauses, restoring the original formula/assumption
    separation; a file without the comment imports with an empty cube.
    """
    varmap = VarMap()
    cube: tuple[int, ...] = ()
    comments: list[str] = []
    body: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if line.startswith(_VARMAP_PREFIX):
            parts = line[len(_VARMAP_PREFIX):].split()
            if len(parts) != 2:
                raise ValueError(f"malformed varmap line: {raw_line!r}")
            varmap.bind(int(parts[0]), parts[1])
        elif line.startswith(_CUBE_PREFIX):
            lits = [int(tok) for tok in line[len(_CUBE_PREFIX):].split()]
            if not lits or lits[-1] != 0 or 0 in lits[:-1]:
                raise ValueError(f"malformed cube line: {raw_line!r}")
            cube = tuple(lits[:-1])
        elif line == "c" or line.startswith("c ") or line == "c\t":
            comments.append(line[2:] if len(line) > 2 else "")
        else:
            body.append(raw_line)
    cnf = CNF.from_dimacs("\n".join(body) + "\n")
    if cube:
        clauses = cnf.clauses
        tail = clauses[len(clauses) - len(cube):]
        if tail != [(lit,) for lit in cube]:
            raise ValueError(
                "cube comment does not match trailing unit clauses"
            )
        trimmed = CNF(num_vars=cnf.num_vars)
        body = clauses[: len(clauses) - len(cube)]
        trimmed.add_clauses(*flatten(body), trusted=True)
        cnf = trimmed
    return DimacsDocument(
        cnf=cnf, varmap=varmap, cube=cube, comments=tuple(comments)
    )


def write_document(doc: DimacsDocument, path: str | os.PathLike[str]) -> Path:
    """Write ``doc`` to ``path`` plus a ``.varmap.json`` sidecar.

    Both files are written atomically (temp file + rename) so a concurrent
    reader — e.g. an external solver watching a shared ``--dimacs-dir`` —
    never sees a torn file.  The sidecar is only produced for a non-empty
    varmap.  Returns the CNF path.
    """
    path = Path(path)
    _atomic_write(path, dumps(doc))
    if len(doc.varmap):
        _atomic_write(path.with_name(path.name + SIDECAR_SUFFIX), doc.varmap.to_json())
    return path


def read_document(path: str | os.PathLike[str]) -> DimacsDocument:
    """Read a DIMACS file; merge sidecar varmap entries when present."""
    path = Path(path)
    doc = loads(path.read_text())
    sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
    if sidecar.exists():
        for var, name in VarMap.from_json(sidecar.read_text()).items():
            doc.varmap.bind(var, name)
    return doc


def _atomic_write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Mapper-attempt integration
# ---------------------------------------------------------------------------
def attempt_varmap(encoding: "MappingEncoding") -> VarMap:
    """Name the placement variables of an encoded attempt.

    Placement variables are named ``x[n<node>,p<pe>,c<cycle>,i<iter>]``; the
    attempt's selector literal (incremental mode) is named ``sel``.  Auxiliary
    cardinality variables stay anonymous — they carry no model information
    the mapper needs back.
    """
    varmap = VarMap()
    for (node, pe, cycle, iteration), var in encoding.variables.items():
        varmap.bind(var, f"x[n{node},p{pe},c{cycle},i{iteration}]")
    if encoding.selector is not None:
        varmap.bind(encoding.selector, "sel")
    return varmap


def export_encoding(
    encoding: "MappingEncoding",
    path: str | os.PathLike[str],
    assumptions: Sequence[int] = (),
    comments: Sequence[str] = (),
) -> Path:
    """Export a standalone encoded attempt (``encoding.cnf`` must exist).

    Incremental attempts emit clauses straight into a backend and keep no
    CNF copy; export those via :func:`export_backend` on the live backend
    instead.
    """
    if encoding.cnf is None:
        raise ValueError(
            "encoding has no standalone CNF (emitted into a backend); "
            "export the backend's accumulated clause set instead"
        )
    doc = DimacsDocument(
        cnf=encoding.cnf,
        varmap=attempt_varmap(encoding),
        cube=tuple(assumptions),
        comments=tuple(comments),
    )
    return write_document(doc, path)


def export_backend(
    backend: object,
    path: str | os.PathLike[str],
    assumptions: Sequence[int] = (),
    varmap: VarMap | None = None,
    comments: Sequence[str] = (),
) -> Path:
    """Export a live backend's accumulated clause set.

    Works for any backend exposing ``accumulated_cnf`` (the DPLL and
    subprocess backends do; the CDCL backend keeps clauses in its arena and
    does not replay them).
    """
    cnf = getattr(backend, "accumulated_cnf", None)
    if cnf is None:
        raise ValueError(
            f"backend {type(backend).__name__} does not expose an "
            "accumulated clause set (accumulated_cnf)"
        )
    doc = DimacsDocument(
        cnf=cnf,
        varmap=varmap or VarMap(),
        cube=tuple(assumptions),
        comments=tuple(comments),
    )
    return write_document(doc, path)


def project_model(
    doc: DimacsDocument, model: Mapping[int, bool]
) -> dict[int, bool]:
    """Restrict an external model to the document's named variables.

    The result maps the *original* variable numbers (which are the mapper's
    own, since export never renumbers) to booleans — exactly the shape
    ``MappingEncoding.decode`` consumes.  Unnamed auxiliary variables are
    dropped; named variables the solver left unassigned are defaulted to
    ``False`` (standard don't-care completion).
    """
    out: dict[int, bool] = {}
    for var, _name in doc.varmap.items():
        out[var] = bool(model.get(var, False))
    return out
