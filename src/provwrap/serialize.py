"""Deterministic writers for PROV-JSON, DOT and RO-Crate metadata.

Both JSON emitters are byte-deterministic: fixed top-level key order,
lexicographically sorted node and attribute keys, 2-space indentation, LF
line endings, UTF-8. parse_prov_json is the strict inverse of
to_prov_json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import PurePosixPath
from typing import Any

from .classify import Category, LoggedBy, RunSegment
from .errors import DocumentError, ProvJsonError, RendererError
from .provmodel import (
    _ENDPOINTS,
    ProvActivity,
    ProvAgent,
    ProvDocument,
    ProvEntity,
    ProvRelation,
    QualifiedName,
    decode_local,
    validate,
)
from .runmeta import RunMetadata, format_timestamp, parse_timestamp

ROCRATE_CONTEXT = "https://w3id.org/ro/crate/1.1/context"
ROCRATE_PROFILE = "https://w3id.org/ro/crate/1.1"

_TOP_LEVEL_KEYS = ("prefix", "entity", "activity", "agent", *(kind.value for kind in _ENDPOINTS))


def _dump(obj: Any) -> bytes:
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _require_valid(doc: ProvDocument) -> None:
    violations = validate(doc)
    if violations:
        raise DocumentError(
            "refusing to serialize an invalid document: " + "; ".join(violations)
        )


def _entity_attributes(entity: ProvEntity) -> dict[str, str]:
    attrs = {
        "yprov:role": entity.role.value,
        "yprov:logged_by": entity.logged_by.value,
        "yprov:copied": "true" if entity.copied else "false",
    }
    if entity.sha256 is not None:
        attrs["yprov:sha256"] = entity.sha256
    if entity.size_bytes is not None:
        attrs["yprov:size_bytes"] = str(entity.size_bytes)
    attrs.update(entity.extra_attributes)
    return dict(sorted(attrs.items()))


def _activity_attributes(activity: ProvActivity) -> dict[str, str]:
    attrs = {
        "prov:startTime": format_timestamp(activity.start_time),
        "prov:endTime": format_timestamp(activity.end_time),
        "yprov:command": activity.command,
        "yprov:exit_status": str(activity.exit_status),
    }
    if activity.git_commit is not None:
        attrs["yprov:git_commit"] = activity.git_commit
    attrs.update(activity.extra_attributes)
    return dict(sorted(attrs.items()))


def to_prov_json(doc: ProvDocument) -> bytes:
    """Serialize a valid document to canonical PROV-JSON bytes."""
    _require_valid(doc)
    top: dict[str, Any] = {}
    top["prefix"] = dict(sorted(doc.prefixes.items()))
    if doc.entities:
        top["entity"] = {
            key: _entity_attributes(doc.entities[key]) for key in sorted(doc.entities)
        }
    top["activity"] = {
        key: _activity_attributes(doc.activities[key])
        for key in sorted(doc.activities)
    }
    top["agent"] = {
        key: dict(
            sorted(
                {
                    "yprov:username": doc.agents[key].username,
                    "yprov:hostname": doc.agents[key].hostname,
                }.items()
            )
        )
        for key in sorted(doc.agents)
    }
    for kind, node_kinds in _ENDPOINTS.items():
        subject_key, object_key = (f"prov:{node_kind}" for node_kind in node_kinds)
        section = {
            str(rel.relation_id): {
                subject_key: str(rel.subject),
                object_key: str(rel.object),
            }
            for rel in doc.relations
            if rel.kind is kind
        }
        if section:
            top[kind.value] = section
    return _dump(top)


def _split_qualified(text: str, prefixes: dict[str, str], context: str) -> QualifiedName:
    prefix, sep, local = text.partition(":")
    if not sep or not prefix or not local:
        raise ProvJsonError(f"{context}: {text!r} is not a qualified name")
    if prefix not in prefixes:
        raise ProvJsonError(
            f"{context}: prefix {prefix!r} is not declared in the prefix map"
        )
    return QualifiedName(prefix, local)


def _string_attributes(raw: Any, context: str) -> dict[str, str]:
    if not isinstance(raw, dict):
        raise ProvJsonError(f"{context}: expected an attribute object")
    for key, value in raw.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ProvJsonError(f"{context}: attribute {key!r} must map a string to a string")
    return dict(raw)


def _pop_required(attrs: dict[str, str], key: str, context: str) -> str:
    if key not in attrs:
        raise ProvJsonError(f"{context}: missing required attribute {key!r}")
    return attrs.pop(key)


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProvJsonError(f"{context}: {text!r} is not an integer") from None


def parse_prov_json(data: bytes) -> ProvDocument:
    """Parse bytes produced by :func:`to_prov_json` back into a document.

    Strict by design: unknown top-level sections, undeclared prefixes and
    malformed relation objects are all rejected with a descriptive error.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProvJsonError(f"not valid UTF-8 JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProvJsonError("top level must be a JSON object")
    unknown = set(obj) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ProvJsonError(f"unknown top-level sections: {sorted(unknown)}")
    missing = [key for key in ("prefix", "activity", "agent") if key not in obj]
    if missing:
        raise ProvJsonError(f"missing required sections: {missing}")

    prefixes = obj["prefix"]
    if not isinstance(prefixes, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in prefixes.items()
    ):
        raise ProvJsonError("prefix section must map strings to strings")
    prefixes = dict(prefixes)

    entities: dict[str, ProvEntity] = {}
    for key, raw in obj.get("entity", {}).items():
        context = f"entity {key}"
        qid = _split_qualified(key, prefixes, context)
        attrs = _string_attributes(raw, context)
        role_text = _pop_required(attrs, "yprov:role", context)
        try:
            role = Category(role_text)
        except ValueError:
            raise ProvJsonError(f"{context}: unknown role {role_text!r}") from None
        logged_text = _pop_required(attrs, "yprov:logged_by", context)
        try:
            logged_by = LoggedBy(logged_text)
        except ValueError:
            raise ProvJsonError(f"{context}: unknown logged_by {logged_text!r}") from None
        copied_text = _pop_required(attrs, "yprov:copied", context)
        if copied_text not in ("true", "false"):
            raise ProvJsonError(f"{context}: yprov:copied must be 'true' or 'false'")
        sha256 = attrs.pop("yprov:sha256", None)
        size_text = attrs.pop("yprov:size_bytes", None)
        size_bytes = None if size_text is None else _parse_int(size_text, context)
        entities[key] = ProvEntity(
            id=qid,
            role=role,
            logged_by=logged_by,
            sha256=sha256,
            size_bytes=size_bytes,
            copied=copied_text == "true",
            extra_attributes=attrs,
        )

    activities: dict[str, ProvActivity] = {}
    for key, raw in obj["activity"].items():
        context = f"activity {key}"
        qid = _split_qualified(key, prefixes, context)
        attrs = _string_attributes(raw, context)
        try:
            start_time = parse_timestamp(_pop_required(attrs, "prov:startTime", context))
            end_time = parse_timestamp(_pop_required(attrs, "prov:endTime", context))
        except ValueError as exc:
            raise ProvJsonError(f"{context}: {exc}") from None
        command = _pop_required(attrs, "yprov:command", context)
        exit_status = _parse_int(_pop_required(attrs, "yprov:exit_status", context), context)
        git_commit = attrs.pop("yprov:git_commit", None)
        activities[key] = ProvActivity(
            id=qid,
            command=command,
            start_time=start_time,
            end_time=end_time,
            git_commit=git_commit,
            exit_status=exit_status,
            extra_attributes=attrs,
        )

    agents: dict[str, ProvAgent] = {}
    for key, raw in obj["agent"].items():
        context = f"agent {key}"
        qid = _split_qualified(key, prefixes, context)
        attrs = _string_attributes(raw, context)
        username = _pop_required(attrs, "yprov:username", context)
        hostname = _pop_required(attrs, "yprov:hostname", context)
        if attrs:
            raise ProvJsonError(f"{context}: unexpected attributes {sorted(attrs)}")
        agents[key] = ProvAgent(id=qid, username=username, hostname=hostname)

    relations: list[ProvRelation] = []
    for kind, node_kinds in _ENDPOINTS.items():
        subject_key, object_key = (f"prov:{node_kind}" for node_kind in node_kinds)
        for rid, raw in obj.get(kind.value, {}).items():
            context = f"{kind.value} {rid}"
            if not isinstance(raw, dict) or set(raw) != {subject_key, object_key}:
                raise ProvJsonError(
                    f"{context}: relation object must carry exactly "
                    f"{subject_key!r} and {object_key!r}"
                )
            relations.append(
                ProvRelation(
                    kind=kind,
                    relation_id=_split_qualified(rid, prefixes, context),
                    subject=_split_qualified(raw[subject_key], prefixes, context),
                    object=_split_qualified(raw[object_key], prefixes, context),
                )
            )

    return ProvDocument(
        prefixes=prefixes,
        entities=entities,
        activities=activities,
        agents=agents,
        relations=tuple(relations),
    )


# --- DOT -----------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(doc: ProvDocument) -> str:
    """Render the document as a deterministic directed graph.

    Entities are ellipses, activities boxes, agents house-shaped; each
    activity's PROV-JSON attributes become `key = value` lines, in key
    order, of a note node hanging off a dashed edge. Node statements are
    sorted by id, edge statements follow relation order.
    """
    _require_valid(doc)
    nodes: list[tuple[str, str]] = []
    for key, entity in doc.entities.items():
        attrs = [
            f'label="{_dot_escape(decode_local(entity.id.local))}"',
            "shape=ellipse",
        ]
        if entity.logged_by is LoggedBy.USER:
            attrs.append('yprov_logged="user"')
        nodes.append((key, f'"{_dot_escape(key)}" [{", ".join(attrs)}];'))
    note_edges: list[str] = []
    for key, activity in doc.activities.items():
        nodes.append(
            (
                key,
                f'"{_dot_escape(key)}" '
                f'[label="{_dot_escape(decode_local(activity.id.local))}", shape=box];',
            )
        )
        note_id = f"{key}#attributes"
        attributes = _activity_attributes(activity).items()
        label = "".join(_dot_escape(f"{name} = {value}") + "\\l" for name, value in attributes)
        nodes.append((note_id, f'"{_dot_escape(note_id)}" [label="{label}", shape=note];'))
        note_edges.append(f'"{_dot_escape(key)}" -> "{_dot_escape(note_id)}" [style=dashed];')
    for key, agent in doc.agents.items():
        label = _dot_escape(f"{agent.username}@{agent.hostname}")
        nodes.append((key, f'"{_dot_escape(key)}" [label="{label}", shape=house];'))

    edges: list[str] = []
    for relation in doc.relations:
        subject = _dot_escape(str(relation.subject))
        obj = _dot_escape(str(relation.object))
        edges.append(f'"{subject}" -> "{obj}" [label="{relation.kind.value}"];')
    edges.extend(note_edges)

    lines = ["digraph provenance {"]
    lines.extend(f"  {statement}" for _, statement in sorted(nodes))
    lines.extend(f"  {statement}" for statement in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_svg(dot_text: str, renderer: str = "dot") -> bytes:
    """Run the external layout engine and return the SVG it produces."""
    executable = shutil.which(renderer)
    if executable is None:
        raise RendererError(
            f"SVG output requires the external layout tool {renderer!r}; "
            "install it or pass a different renderer"
        )
    result = subprocess.run(
        [executable, "-Tsvg"],
        input=dot_text.encode("utf-8"),
        capture_output=True,
    )
    if result.returncode != 0:
        raise RendererError(
            f"{renderer} failed with status {result.returncode}: "
            + result.stderr.decode("utf-8", errors="replace").strip()
        )
    return result.stdout


# --- RO-Crate ------------------------------------------------------------------

MEDIA_TYPES = {
    ".csv": "text/csv",
    ".gif": "image/gif",
    ".html": "text/html",
    ".jpeg": "image/jpeg",
    ".jpg": "image/jpeg",
    ".json": "application/json",
    ".pdf": "application/pdf",
    ".png": "image/png",
    ".py": "text/x-python",
    ".svg": "image/svg+xml",
    ".tsv": "text/tab-separated-values",
    ".txt": "text/plain",
    ".xml": "application/xml",
}


def media_type_for(path: str) -> str:
    return MEDIA_TYPES.get(PurePosixPath(path).suffix.lower(), "application/octet-stream")


def to_rocrate_metadata(segment: RunSegment, meta: RunMetadata) -> bytes:
    """Emit ro-crate-metadata.json describing the bundle directory.

    The root Dataset takes the segment's name, and its hasPart lists every
    copied artifact plus the provenance JSON; each copied artifact gets a
    File entity with size, media type and sha256. The crate must describe
    only what it contains, so a copied record without a digest is an error.
    """
    copied = [record for record in segment.records if record.copied]
    for record in copied:
        if record.sha256 is None or record.size_bytes is None:
            raise DocumentError(
                f"cannot describe {record.bundle_relative_path!r} in the crate: "
                "copied record lacks digest or size"
            )
    copied.sort(key=lambda record: record.bundle_relative_path)

    graph: list[dict[str, Any]] = [
        {
            "@id": "ro-crate-metadata.json",
            "@type": "CreativeWork",
            "about": {"@id": "./"},
            "conformsTo": {"@id": ROCRATE_PROFILE},
        },
        {
            "@id": "./",
            "@type": "Dataset",
            "datePublished": format_timestamp(meta.end_time),
            "hasPart": [
                *({"@id": record.bundle_relative_path} for record in copied),
                {"@id": "provenance.json"},
            ],
            "name": segment.name,
        },
    ]
    for record in copied:
        part = record.bundle_relative_path
        entity: dict[str, Any] = {
            "@id": part,
            "@type": ["File", "SoftwareSourceCode"]
            if record.category is Category.SOURCE
            else "File",
            "contentSize": record.size_bytes,
            "encodingFormat": media_type_for(part),
            "sha256": record.sha256,
        }
        graph.append(entity)

    return _dump({"@context": ROCRATE_CONTEXT, "@graph": graph})
