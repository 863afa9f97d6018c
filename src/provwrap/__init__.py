"""provwrap: run a command, capture its file provenance, package a bundle."""

from .bundle import BundleReport, allocate_run_dir, write_bundle
from .classify import (
    ArtifactRecord,
    Category,
    InputCopies,
    LoggedBy,
    RunConfig,
    RunSegment,
    apply_size_threshold,
    classify,
)
from .errors import (
    BundleError,
    ControlParseError,
    DocumentError,
    ProvJsonError,
    ProvWrapError,
    RendererError,
    TraceParseError,
)
from .monitor import (
    ControlDirective,
    DirectiveKind,
    EventKind,
    FileEvent,
    Snapshot,
    diff_snapshots,
    load_snapshot,
    parse_control_stream,
    parse_trace_stream,
    save_snapshot,
    take_snapshot,
)
from .provmodel import (
    ProvActivity,
    ProvAgent,
    ProvDocument,
    ProvEntity,
    ProvRelation,
    QualifiedName,
    RelationKind,
    build_document,
    validate,
)
from .runmeta import (
    RunMetadata,
    capture_run,
    format_command,
    format_timestamp,
    parse_timestamp,
    resolve_git_head,
)
from .serialize import (
    media_type_for,
    parse_prov_json,
    render_svg,
    to_dot,
    to_prov_json,
    to_rocrate_metadata,
)

__version__ = "0.1.0"
