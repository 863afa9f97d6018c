"""Document construction and validation."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from provwrap import (
    Category,
    DocumentError,
    ProvRelation,
    QualifiedName,
    RelationKind,
    RunConfig,
    build_document,
    classify,
    validate,
)
from provwrap.monitor import EventKind, FileEvent
from provwrap.provmodel import decode_local, encode_local

from conftest import make_meta, make_record


def _relation_counts(doc):
    counts = {kind: 0 for kind in RelationKind}
    for relation in doc.relations:
        counts[relation.kind] += 1
    return counts


def _reference_encode_local(text):
    """encode_local as a per-character loop: the specification it must match."""
    out = []
    for ch in text:
        if ch == "%":
            out.append("%25")
        elif ch == "\\":
            out.append("%5C")
        elif ch.isspace():
            out.append("".join("%{:02X}".format(b) for b in ch.encode("utf-8")))
        else:
            out.append(ch)
    return "".join(out)


# the escaped characters, a path separator, letters, a non-BMP character and
# whitespace of one, two and three UTF-8 bytes (C0 and C1 controls, no-break, ideographic)
_LOCAL_TEXT = st.text(
    alphabet=st.sampled_from(
        ["%", "\\", "/", "a", "Z", "\U0001F600", "\t", "\n", "\x1c", "\x85", "\xa0",
         "\u2028", "\u3000"]
    )
)


class TestLocalCodec:
    @given(_LOCAL_TEXT)
    def test_encode_matches_the_reference_loop_and_decodes_back(self, text):
        encoded = encode_local(text)
        assert encoded == _reference_encode_local(text)
        assert decode_local(encoded) == text

    def test_escapes(self):
        assert encode_local("a b%c\\d\u3000e") == "a%20b%25c%5Cd%E3%80%80e"


class TestBuildDocument:
    def test_sample_run_shape(self, meta, config):
        records = [
            make_record("inputs/results.csv"),
            make_record("outputs/example.png", category=Category.OUTPUT),
            make_record("src/examples/main.py", category=Category.SOURCE),
        ]
        doc = build_document(records, meta, config)
        assert len(doc.entities) == 3
        assert len(doc.activities) == 1
        assert len(doc.agents) == 1
        counts = _relation_counts(doc)
        assert counts[RelationKind.USED] == 2
        assert counts[RelationKind.WAS_GENERATED_BY] == 1
        assert counts[RelationKind.WAS_ASSOCIATED_WITH] == 1
        assert "yProv4DA:inputs/results.csv" in doc.entities
        assert "yProv4DA:experiment_run" in doc.activities

    def test_empty_record_list(self, meta, config):
        doc = build_document([], meta, config)
        assert doc.entities == {}
        counts = _relation_counts(doc)
        assert counts[RelationKind.USED] == 0
        assert counts[RelationKind.WAS_GENERATED_BY] == 0
        assert counts[RelationKind.WAS_ASSOCIATED_WITH] == 1

    def test_downloaded_then_read_file_gets_both_edges(self, meta, config, tmp_path):
        # Oracle: replay the create-then-read event sequence through
        # classify and count the edges the resulting records demand.
        cwd = tmp_path.resolve()
        data = cwd / "results.csv"
        data.write_text("points\n1\n")
        events = [
            FileEvent(path=data, kind=EventKind.CREATED),
            FileEvent(path=data, kind=EventKind.READ_INTENT),
        ]
        segments = classify(events, config, cwd)
        records = segments[0].records
        assert len(records) == 1
        assert records[0].category is Category.INPUT
        assert records[0].also_generated is True

        doc = build_document(records, meta, config)
        entity_id = "yProv4DA:inputs/results.csv"
        touching = [
            r.kind
            for r in doc.relations
            if entity_id in (str(r.subject), str(r.object))
        ]
        assert sorted(t.value for t in touching) == ["used", "wasGeneratedBy"]

    def test_duplicate_bundle_paths_name_both_originals(self, meta, config):
        first = make_record("inputs/results.csv")
        second = make_record(
            "inputs/results.csv", original_path=Path("/elsewhere/results.csv")
        )
        with pytest.raises(DocumentError) as err:
            build_document([first, second], meta, config)
        assert str(first.original_path) in str(err.value)
        assert "/elsewhere/results.csv" in str(err.value)

    def test_original_path_kept_as_attribute(self, meta, config):
        doc = build_document([make_record()], meta, config)
        entity = doc.entities["yProv4DA:inputs/results.csv"]
        assert entity.extra_attributes["yprov:original_path"] == "/work/results.csv"

    def test_relation_ids_deterministic(self, meta, config):
        records = [
            make_record("inputs/a.csv"),
            make_record("inputs/b.csv"),
            make_record("outputs/c.png", category=Category.OUTPUT),
        ]
        doc = build_document(records, meta, config)
        assert [str(r.relation_id) for r in doc.relations] == [
            "yProv4DA:u0",
            "yProv4DA:u1",
            "yProv4DA:g0",
            "yProv4DA:a0",
        ]

    def test_spaces_in_bundle_path_are_encoded(self, meta, config):
        doc = build_document(
            [make_record("inputs/data dir/x.csv")], meta, config
        )
        assert "yProv4DA:inputs/data%20dir/x.csv" in doc.entities

    def test_backslash_in_filename_encoded_and_valid(self, meta, config):
        doc = build_document(
            [make_record("inputs/back\\slash.csv")], meta, config
        )
        assert "yProv4DA:inputs/back%5Cslash.csv" in doc.entities
        assert validate(doc) == []

    def test_entity_ids_injective_over_bundle_paths(self, meta, config):
        # the raw path "a%20b" and the encoded form of "a b" must not collide
        doc = build_document(
            [make_record("inputs/a b"), make_record("inputs/a%20b")],
            meta,
            config,
        )
        assert len(doc.entities) == 2

    def test_deterministic_construction(self, meta, config):
        records = [
            make_record("inputs/a.csv"),
            make_record("outputs/b.png", category=Category.OUTPUT),
        ]
        first = build_document(records, meta, config)
        second = build_document(records, meta, config)
        assert first == second
        assert list(first.entities) == list(second.entities)

    def test_used_edge_count_matches_role_rule(self, meta, config):
        records = [
            make_record("inputs/a.csv"),
            make_record("src/s.py", category=Category.SOURCE),
            make_record("inputs/requirements.txt", category=Category.ENVIRONMENT),
            make_record("outputs/o.png", category=Category.OUTPUT),
            make_record(
                "outputs/rw.dat", category=Category.OUTPUT, also_generated=True
            ),
        ]
        doc = build_document(records, meta, config)
        non_output = sum(1 for r in records if r.category is not Category.OUTPUT)
        output_also_read = sum(
            1 for r in records if r.category is Category.OUTPUT and r.also_generated
        )
        assert (
            _relation_counts(doc)[RelationKind.USED]
            == non_output + output_also_read
        )

    def test_custom_prefix_and_namespace(self, meta):
        config = RunConfig(prefix="lab", default_namespace="https://lab.example/ns/")
        doc = build_document([make_record()], meta, config)
        assert doc.prefixes == {"lab": "https://lab.example/ns/"}
        assert "lab:inputs/results.csv" in doc.entities


class TestValidate:
    def test_built_documents_are_valid(self, meta, config):
        doc = build_document(
            [
                make_record("inputs/a.csv"),
                make_record("outputs/b.png", category=Category.OUTPUT),
            ],
            meta,
            config,
        )
        assert validate(doc) == []

    def test_undeclared_relation_endpoint(self, meta, config):
        doc = build_document([make_record()], meta, config)
        ghost = ProvRelation(
            kind=RelationKind.USED,
            relation_id=QualifiedName("yProv4DA", "u99"),
            subject=QualifiedName("yProv4DA", "experiment_run"),
            object=QualifiedName("yProv4DA", "inputs/ghost.csv"),
        )
        broken = dataclasses.replace(doc, relations=doc.relations + (ghost,))
        violations = validate(broken)
        assert len(violations) == 1
        assert "inputs/ghost.csv" in violations[0]

    def test_duplicate_relation_ids(self, meta, config):
        doc = build_document([make_record()], meta, config)
        duplicate = dataclasses.replace(doc.relations[0])
        broken = dataclasses.replace(doc, relations=doc.relations + (duplicate,))
        violations = validate(broken)
        assert any("not unique" in v for v in violations)

    def test_undeclared_prefix(self, meta, config):
        doc = build_document([], meta, config)
        stray = ProvRelation(
            kind=RelationKind.WAS_ASSOCIATED_WITH,
            relation_id=QualifiedName("mystery", "a1"),
            subject=QualifiedName("yProv4DA", "experiment_run"),
            object=QualifiedName("yProv4DA", "agent"),
        )
        broken = dataclasses.replace(doc, relations=doc.relations + (stray,))
        assert any("mystery" in v for v in validate(broken))

    def test_copied_entity_requires_digest_and_size(self, meta, config):
        record = make_record(sha256=None, size_bytes=None)  # copied stays True
        doc = build_document([record], meta, config)
        assert any("sha256" in v for v in validate(doc))

    def test_start_after_end_flagged(self, config):
        meta = make_meta(
            start_time=make_meta().end_time, end_time=make_meta().start_time
        )
        doc = build_document([], meta, config)
        assert any("start_time after end_time" in v for v in validate(doc))

    def test_bad_git_commit_flagged(self, config):
        meta = make_meta(git_commit="ABC123")
        doc = build_document([], meta, config)
        assert any("git_commit" in v for v in validate(doc))
