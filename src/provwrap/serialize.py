"""Deterministic writers for PROV-JSON, DOT and RO-Crate metadata.

Both JSON emitters are byte-deterministic: fixed top-level key order,
lexicographically sorted node and attribute keys, 2-space indentation, LF
line endings, UTF-8. parse_prov_json is the strict inverse of
to_prov_json.
"""

from __future__ import annotations

import json
import operator
import shutil
import subprocess
from pathlib import PurePosixPath
from typing import Any, Callable

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


def _dump(obj: Any) -> bytes:
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _require_valid(doc: ProvDocument) -> None:
    violations = validate(doc)
    if violations:
        raise DocumentError(
            "refusing to serialize an invalid document: " + "; ".join(violations)
        )


# One row per PROV-JSON attribute of a node kind: (attribute, dataclass field,
# to-text, from-text, optional); an optional attribute is written only when its
# field is not None. The reader accepts a text only if to-text writes the value
# from-text read back as that very text, so from-text may be lenient.
_Row = tuple[str, str, Callable[[Any], str], Callable[[str], Any], bool]
_enum_text: Callable[[Any], str] = operator.attrgetter("value")
_ENTITY_FIELDS: tuple[_Row, ...] = (
    ("yprov:role", "role", _enum_text, Category, False),
    ("yprov:logged_by", "logged_by", _enum_text, LoggedBy, False),
    ("yprov:copied", "copied", lambda copied: "true" if copied else "false",
     lambda text: text == "true", False),
    ("yprov:sha256", "sha256", str, str, True),
    ("yprov:size_bytes", "size_bytes", str, int, True),
)
_ACTIVITY_FIELDS: tuple[_Row, ...] = (
    ("prov:startTime", "start_time", format_timestamp, parse_timestamp, False),
    ("prov:endTime", "end_time", format_timestamp, parse_timestamp, False),
    ("yprov:command", "command", str, str, False),
    ("yprov:exit_status", "exit_status", str, int, False),
    ("yprov:git_commit", "git_commit", str, str, True),
)
_AGENT_FIELDS: tuple[_Row, ...] = (
    ("yprov:username", "username", str, str, False),
    ("yprov:hostname", "hostname", str, str, False),
)
# each node section, in PROV-JSON order: (node class, ProvDocument field,
# attribute table, whether the section is omitted when empty)
_NODES = {
    "entity": (ProvEntity, "entities", _ENTITY_FIELDS, True),
    "activity": (ProvActivity, "activities", _ACTIVITY_FIELDS, False),
    "agent": (ProvAgent, "agents", _AGENT_FIELDS, False),
}
_TOP_LEVEL_KEYS = ("prefix", *_NODES, *(kind.value for kind in _ENDPOINTS))
_REQUIRED_SECTIONS = ("prefix", *(s for s, (*_, omit_empty) in _NODES.items() if not omit_empty))


def _attributes(node: Any, rows: tuple[_Row, ...]) -> dict[str, str]:
    attrs = {
        name: to_text(value)
        for name, field, to_text, _, optional in rows
        if (value := getattr(node, field)) is not None or not optional
    }
    attrs.update(getattr(node, "extra_attributes", {}))
    return dict(sorted(attrs.items()))


def to_prov_json(doc: ProvDocument) -> bytes:
    """Serialize a valid document to canonical PROV-JSON bytes."""
    _require_valid(doc)
    top: dict[str, Any] = {"prefix": dict(sorted(doc.prefixes.items()))}
    for section, (_, doc_field, rows, omit_empty) in _NODES.items():
        nodes = getattr(doc, doc_field)
        if nodes or not omit_empty:
            top[section] = {key: _attributes(nodes[key], rows) for key in sorted(nodes)}
    for kind, node_kinds in _ENDPOINTS.items():
        subject_key, object_key = (f"prov:{node_kind}" for node_kind in node_kinds)
        section = {
            str(rel.relation_id): {subject_key: str(rel.subject), object_key: str(rel.object)}
            for rel in doc.relations
            if rel.kind is kind
        }
        if section:
            top[kind.value] = section
    return _dump(top)


def _split_qualified(text: Any, prefixes: dict[str, str], context: str) -> QualifiedName:
    prefix, sep, local = text.partition(":") if isinstance(text, str) else ("", "", "")
    if not sep or not prefix or not local:
        raise ProvJsonError(f"{context}: {text!r} is not a qualified name")
    if prefix not in prefixes:
        raise ProvJsonError(f"{context}: prefix {prefix!r} is not declared in the prefix map")
    try:
        decode_local(local)
    except UnicodeDecodeError:
        raise ProvJsonError(f"{context}: {text!r} escapes bytes that are not UTF-8") from None
    return QualifiedName(prefix, local)


def _section(obj: dict[str, Any], name: str) -> dict[str, Any]:
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise ProvJsonError(f"{name} section must be an object")
    if name in obj and not section and name not in _REQUIRED_SECTIONS:
        raise ProvJsonError(f"{name} section is empty; an empty section is omitted")
    return section


def _read_node(section: str, key: str, raw: Any, prefixes: dict[str, str]) -> Any:
    """One node of a node section, read through its kind's attribute table."""
    node_class, _, rows, _ = _NODES[section]
    context = f"{section} {key}"
    if not isinstance(raw, dict):
        raise ProvJsonError(f"{context}: expected an attribute object")
    for name, text in raw.items():
        if not isinstance(text, str):
            raise ProvJsonError(f"{context}: attribute {name!r} must be a string")
    attrs = dict(raw)
    values: dict[str, Any] = {"id": _split_qualified(key, prefixes, context)}
    for name, field, to_text, from_text, optional in rows:
        text = values[field] = attrs.pop(name, None)
        if text is None:
            if optional:
                continue
            raise ProvJsonError(f"{context}: missing required attribute {name!r}")
        try:
            values[field] = from_text(text)
            written = to_text(values[field])
        except ValueError:
            written = None
        if written != text:
            raise ProvJsonError(f"{context}: {name!r} is {text!r}, not what to_prov_json writes")
    if "extra_attributes" in node_class.__dataclass_fields__:
        values["extra_attributes"] = attrs
    elif attrs:
        raise ProvJsonError(f"{context}: unexpected attributes {sorted(attrs)}")
    return node_class(**values)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj: dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise ProvJsonError(f"duplicate key {key!r}: to_prov_json writes each key once")
        obj[key] = value
    return obj


def parse_prov_json(data: bytes) -> ProvDocument:
    """Parse bytes produced by :func:`to_prov_json` back into a document.

    Strict by design: every failure is a ProvJsonError. Unknown or empty
    optional sections, undeclared prefixes, malformed relation objects,
    duplicate keys and any attribute value that :func:`to_prov_json` would
    write differently are all rejected with a descriptive error.
    """
    try:
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProvJsonError(f"not valid UTF-8 JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProvJsonError("top level must be a JSON object")
    unknown = set(obj) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ProvJsonError(f"unknown top-level sections: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_SECTIONS if key not in obj]
    if missing:
        raise ProvJsonError(f"missing required sections: {missing}")

    prefixes = _section(obj, "prefix")
    if not all(isinstance(value, str) for value in prefixes.values()):
        raise ProvJsonError("prefix section must map strings to strings")

    nodes = {
        doc_field: {
            key: _read_node(section, key, raw, prefixes)
            for key, raw in _section(obj, section).items()
        }
        for section, (_, doc_field, _, _) in _NODES.items()
    }

    relations: list[ProvRelation] = []
    for kind, node_kinds in _ENDPOINTS.items():
        subject_key, object_key = (f"prov:{node_kind}" for node_kind in node_kinds)
        for rid, raw in _section(obj, kind.value).items():
            context = f"{kind.value} {rid}"
            if not isinstance(raw, dict) or set(raw) != {subject_key, object_key}:
                raise ProvJsonError(
                    f"{context}: relation object must carry exactly "
                    f"{subject_key!r} and {object_key!r}"
                )
            names = (rid, raw[subject_key], raw[object_key])
            relations.append(
                ProvRelation(kind, *(_split_qualified(n, prefixes, context) for n in names))
            )

    return ProvDocument(prefixes=prefixes, relations=tuple(relations), **nodes)


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
        attributes = _attributes(activity, _ACTIVITY_FIELDS).items()
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
