"""Provenance graph model: qualified names, nodes, relations, validation.

The graph vocabulary is deliberately small: Entity, Activity, Agent and the
used / wasGeneratedBy / wasAssociatedWith relations, which is everything a
single wrapped execution needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Sequence
from urllib.parse import quote, unquote

from .classify import ArtifactRecord, Category, LoggedBy, RunConfig
from .errors import DocumentError
from .runmeta import RunMetadata

_HEX40 = re.compile(r"^[0-9a-f]{40}$")
# what a local part cannot carry; \s matches exactly what str.isspace() accepts
_ESCAPED = re.compile(r"[%\\\s]")


def encode_local(text: str) -> str:
    """Percent-encode characters a qualified-name local part cannot carry.

    Locals must be free of whitespace and backslashes (path separators are
    always "/"); "%" itself is escaped so the encoding stays injective over
    arbitrary path strings. Each such character becomes its UTF-8 bytes as
    %XX escapes.
    """
    return _ESCAPED.sub(lambda match: quote(match[0], safe=""), text)


def decode_local(text: str) -> str:
    """Inverse of :func:`encode_local` (decodes every %XX byte escape)."""
    return unquote(text, errors="strict")


@dataclass(frozen=True)
class QualifiedName:
    prefix: str
    local: str

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}"


class RelationKind(Enum):
    """A relation kind; its value is its PROV-JSON section name."""

    USED = "used"
    WAS_GENERATED_BY = "wasGeneratedBy"
    WAS_ASSOCIATED_WITH = "wasAssociatedWith"


# each relation kind's subject and object node kinds, in PROV-JSON section order
_ENDPOINTS = {
    RelationKind.USED: ("activity", "entity"),
    RelationKind.WAS_GENERATED_BY: ("entity", "activity"),
    RelationKind.WAS_ASSOCIATED_WITH: ("activity", "agent"),
}


@dataclass(frozen=True)
class ProvEntity:
    id: QualifiedName
    role: Category
    logged_by: LoggedBy
    sha256: str | None = None
    size_bytes: int | None = None
    copied: bool = False
    extra_attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ProvActivity:
    id: QualifiedName
    command: str
    start_time: datetime
    end_time: datetime
    git_commit: str | None
    exit_status: int
    extra_attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ProvAgent:
    id: QualifiedName
    username: str
    hostname: str


@dataclass(frozen=True)
class ProvRelation:
    kind: RelationKind
    relation_id: QualifiedName
    subject: QualifiedName
    object: QualifiedName


@dataclass(frozen=True)
class ProvDocument:
    """One run's provenance graph; immutable after construction."""

    prefixes: dict[str, str]
    entities: dict[str, ProvEntity]
    activities: dict[str, ProvActivity]
    agents: dict[str, ProvAgent]
    relations: tuple[ProvRelation, ...]


def build_document(
    records: Sequence[ArtifactRecord],
    meta: RunMetadata,
    config: RunConfig,
    run_name: str | None = None,
) -> ProvDocument:
    """Construct the provenance graph for one classified segment.

    One activity (named run_name, or else the configured run name),
    one agent, one entity per record. Input/Source/Environment records get
    a used edge, Output records a wasGeneratedBy edge, and a record flagged
    also_generated gets both on its single entity. Entity locals are the
    bundle-relative paths; original absolute paths are kept as an entity
    attribute. Relation ids are deterministic: u<k>/g<k> in record order,
    a0 for the agent association; the relations list every used edge,
    then every wasGeneratedBy edge, then a0.
    """
    prefix = config.prefix
    activity_id = QualifiedName(prefix, encode_local(run_name or config.run_name))
    agent_id = QualifiedName(prefix, "agent")

    entities: dict[str, ProvEntity] = {}
    used: list[ProvRelation] = []
    generated: list[ProvRelation] = []
    for record in records:
        qid = QualifiedName(prefix, encode_local(record.bundle_relative_path))
        key = str(qid)
        if key in entities:
            raise DocumentError(
                f"duplicate bundle-relative path {record.bundle_relative_path!r}: "
                f"{entities[key].extra_attributes['yprov:original_path']} "
                f"and {record.original_path}"
            )
        extra = {"yprov:original_path": str(record.original_path)}
        if record.skip_reason:
            extra["yprov:skip_reason"] = record.skip_reason
        entities[key] = ProvEntity(
            id=qid,
            role=record.category,
            logged_by=record.logged_by,
            sha256=record.sha256,
            size_bytes=record.size_bytes,
            copied=record.copied,
            extra_attributes=extra,
        )
        if record.category is not Category.OUTPUT or record.also_generated:
            rid = QualifiedName(prefix, f"u{len(used)}")
            used.append(ProvRelation(RelationKind.USED, rid, activity_id, qid))
        if record.category is Category.OUTPUT or record.also_generated:
            rid = QualifiedName(prefix, f"g{len(generated)}")
            generated.append(ProvRelation(RelationKind.WAS_GENERATED_BY, rid, qid, activity_id))
    associated = ProvRelation(
        RelationKind.WAS_ASSOCIATED_WITH, QualifiedName(prefix, "a0"), activity_id, agent_id
    )

    activity = ProvActivity(
        id=activity_id,
        command=meta.command,
        start_time=meta.start_time,
        end_time=meta.end_time,
        git_commit=meta.git_commit,
        exit_status=meta.exit_status,
    )
    agent = ProvAgent(
        id=agent_id,
        username=meta.username or "unknown",
        hostname=meta.hostname or "unknown",
    )
    return ProvDocument(
        prefixes={prefix: config.default_namespace},
        entities=entities,
        activities={str(activity_id): activity},
        agents={str(agent_id): agent},
        relations=(*used, *generated, associated),
    )


def _check_name(qn: QualifiedName, owner: str, prefixes: dict[str, str], out: list[str]) -> None:
    if not qn.prefix:
        out.append(f"{owner}: empty prefix in {qn}")
    elif qn.prefix not in prefixes:
        out.append(f"{owner}: prefix {qn.prefix!r} not declared in the prefix map")
    if not qn.local:
        out.append(f"{owner}: empty local part")
    elif any(ch.isspace() for ch in qn.local):
        out.append(f"{owner}: whitespace in local part {qn.local!r}")
    elif "\\" in qn.local:
        out.append(f"{owner}: platform separator in local part {qn.local!r}")


def validate(doc: ProvDocument) -> list[str]:
    """Return all invariant violations; an empty list means the document is valid."""
    violations: list[str] = []

    for key, entity in doc.entities.items():
        _check_name(entity.id, f"entity {key}", doc.prefixes, violations)
        if key != str(entity.id):
            violations.append(f"entity {key}: keyed under a different id than {entity.id}")
        if entity.copied and (entity.sha256 is None or entity.size_bytes is None):
            violations.append(
                f"entity {key}: copied entities must carry sha256 and size_bytes"
            )
    for key, activity in doc.activities.items():
        _check_name(activity.id, f"activity {key}", doc.prefixes, violations)
        if key != str(activity.id):
            violations.append(f"activity {key}: keyed under a different id than {activity.id}")
        if activity.start_time > activity.end_time:
            violations.append(f"activity {key}: start_time after end_time")
        if activity.git_commit is not None and not _HEX40.match(activity.git_commit):
            violations.append(
                f"activity {key}: git_commit is not 40 lowercase hex characters"
            )
    for key, agent in doc.agents.items():
        _check_name(agent.id, f"agent {key}", doc.prefixes, violations)
        if key != str(agent.id):
            violations.append(f"agent {key}: keyed under a different id than {agent.id}")
        if not agent.username or not agent.hostname:
            violations.append(f"agent {key}: username and hostname must be non-empty")

    if len(doc.agents) != 1:
        violations.append(f"document: expected exactly one agent, found {len(doc.agents)}")
    if not doc.activities:
        violations.append("document: at least one activity is required")

    nodes = {"entity": doc.entities, "activity": doc.activities, "agent": doc.agents}
    seen_relation_ids: set[str] = set()
    for relation in doc.relations:
        rid = str(relation.relation_id)
        _check_name(relation.relation_id, f"relation {rid}", doc.prefixes, violations)
        if rid in seen_relation_ids:
            violations.append(f"relation {rid}: relation_id is not unique")
        seen_relation_ids.add(rid)
        subject_kind, object_kind = _ENDPOINTS[relation.kind]
        if str(relation.subject) not in nodes[subject_kind]:
            violations.append(
                f"relation {rid}: subject {relation.subject} is not a declared {subject_kind}"
            )
        if str(relation.object) not in nodes[object_kind]:
            violations.append(
                f"relation {rid}: object {relation.object} is not a declared {object_kind}"
            )
    return violations
