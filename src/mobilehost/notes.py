"""The school-grades demo service.

One method, obterNotas(codAluno, codDisciplina) -> string, whose result
concatenates every matching record as
``student;discipline;LABEL;;value`` between ``#`` separators. With no
matches the result is a single ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from .errors import HandlerError
from .service import MethodSignature, ParameterSpec, ServiceDescriptor
from .soap import TypedValue, XsdType

SERVICE_NAME = "CadastroEscolar"
ENDPOINT_PATH = "/CadastroEscolar.jws"
NAMESPACE = "http://localhost:5000/CadastroEscolar.jws"
RESPONSE_NAMESPACE = "http://www.dee.ufma.br/"


@dataclass(frozen=True)
class NoteRecord:
    studentCode: str
    disciplineCode: str
    label: str
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("note value must be >= 0")


# Seed order matters: the rendered result string preserves it.
DEFAULT_SEED = (
    NoteRecord("A001", "D002", "LACKS", 0),
    NoteRecord("A001", "D002", "FINAL TEST", 0),
    NoteRecord("A001", "D002", "REPLACEMENT", 0),
    NoteRecord("A001", "D002", "NOTE 3", 98),
    NoteRecord("A001", "D002", "NOTE 2", 95),
    NoteRecord("A001", "D002", "NOTE 1", 100),
)


def render_notes(records: Iterable[NoteRecord]) -> str:
    parts = [
        f"{r.studentCode};{r.disciplineCode};{r.label};;{r.value}" for r in records
    ]
    return "#" + "#".join(parts) + "#" if parts else "#"


class NotesHandler:
    def __init__(self, seed: Iterable[NoteRecord] = DEFAULT_SEED):
        self.records: Tuple[NoteRecord, ...] = tuple(seed)
        # the records of each (student, discipline) pair, in seed order
        self._by_pair: Dict[Tuple[str, str], List[NoteRecord]] = {}
        for r in self.records:
            self._by_pair.setdefault((r.studentCode, r.disciplineCode), []).append(r)

    def executeMethod(self, methodName: str, args) -> TypedValue:
        if methodName != "obterNotas":
            raise HandlerError(f"unsupported method: {methodName}")
        student, discipline = (a.value for a in args)
        matches = self._by_pair.get((student, discipline), ())
        return TypedValue.of(XsdType.STRING, render_notes(matches))


def notes_descriptor(security_enabled: bool = False) -> ServiceDescriptor:
    return ServiceDescriptor(
        serviceName=SERVICE_NAME,
        namespaceUri=NAMESPACE,
        endpointPath=ENDPOINT_PATH,
        responseNamespaceUri=RESPONSE_NAMESPACE,
        methods=(
            MethodSignature(
                name="obterNotas",
                params=(
                    ParameterSpec("codAluno", XsdType.STRING),
                    ParameterSpec("codDisciplina", XsdType.STRING),
                ),
                returnType=XsdType.STRING,
            ),
        ),
        securityEnabled=security_enabled,
    )


def load_seed_file(path) -> List[NoteRecord]:
    """One record per line: ``student;discipline;label;value``."""
    records = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(";")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected student;discipline;label;value")
        records.append(
            NoteRecord(fields[0], fields[1], fields[2], int(fields[3]))
        )
    return records
