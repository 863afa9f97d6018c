"""PROV-JSON, DOT, SVG rendering and RO-Crate serialization."""

import copy
import dataclasses
import json
import random
import re
import shutil
import stat
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provwrap import (
    ArtifactRecord,
    Category,
    DocumentError,
    LoggedBy,
    ProvJsonError,
    RendererError,
    RunConfig,
    RunSegment,
    build_document,
    media_type_for,
    parse_prov_json,
    render_svg,
    to_dot,
    to_prov_json,
    to_rocrate_metadata,
    validate,
)
from provwrap import serialize

from conftest import make_meta, make_record


def sample_document(meta=None, config=None):
    meta = meta or make_meta()
    config = config or RunConfig()
    records = [
        make_record("inputs/results.csv"),
        make_record(
            "outputs/example.png",
            category=Category.OUTPUT,
            sha256="b" * 64,
            size_bytes=2048,
        ),
        make_record("src/examples/main.py", category=Category.SOURCE),
    ]
    return build_document(records, meta, config)


def random_document(rng: random.Random):
    """A structurally valid document with randomized content."""
    prefix = rng.choice(["yProv4DA", "lab", "exp1"])
    config = RunConfig(
        prefix=prefix,
        default_namespace=rng.choice(
            ["http://example.org/", "https://ns.example/prov/"]
        ),
        run_name=rng.choice(["experiment_run", "fig 2 draft", "träce"]),
    )
    tops = {
        Category.INPUT: "inputs",
        Category.OUTPUT: "outputs",
        Category.SOURCE: "src",
        Category.ENVIRONMENT: "inputs",
    }
    records = []
    for i in range(rng.randint(0, 6)):
        category = rng.choice(list(Category))
        name = "".join(
            rng.choice("abcdeé _-130") for _ in range(rng.randint(1, 10))
        )
        copied = rng.random() < 0.7
        if copied or rng.random() < 0.5:
            sha = "".join(rng.choice("0123456789abcdef") for _ in range(64))
            size = rng.randint(0, 10**9)
        else:
            sha = None
            size = None
        records.append(
            ArtifactRecord(
                original_path=Path(f"/data/orig {i}"),
                bundle_relative_path=f"{tops[category]}/{name}_{i}",
                category=category,
                also_generated=rng.random() < 0.3,
                logged_by=rng.choice(list(LoggedBy)),
                sha256=sha,
                size_bytes=size,
                copied=copied,
                skip_reason=None
                if copied
                else rng.choice(["size_threshold", "subset_mode", "vanished"]),
            )
        )
    start = datetime(
        2026, rng.randint(1, 12), rng.randint(1, 28),
        rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
        rng.randint(0, 999) * 1000, tzinfo=timezone.utc,
    )
    meta = make_meta(
        command=rng.choice(
            ["python main.py", 'plotgen --in "data dir/x.csv"', "make figures"]
        ),
        start_time=start,
        end_time=start + timedelta(milliseconds=rng.randint(0, 90_000)),
        exit_status=rng.randint(0, 255),
        username=rng.choice(["alice", "bob", "unknown"]),
        hostname=rng.choice(["workbench", "hpc-node-3"]),
        git_commit=None
        if rng.random() < 0.5
        else "".join(rng.choice("0123456789abcdef") for _ in range(40)),
    )
    return build_document(records, meta, config)


class TestToProvJson:
    def test_top_level_key_order(self):
        payload = json.loads(to_prov_json(sample_document()))
        assert list(payload) == [
            "prefix",
            "entity",
            "activity",
            "agent",
            "used",
            "wasGeneratedBy",
            "wasAssociatedWith",
        ]

    def test_sample_run_keys_and_prefix_map(self):
        payload = json.loads(to_prov_json(sample_document()))
        assert payload["prefix"] == {"yProv4DA": "http://example.org/"}
        assert "yProv4DA:inputs/results.csv" in payload["entity"]
        assert "yProv4DA:outputs/example.png" in payload["entity"]

    def test_entity_keys_sorted(self):
        payload = json.loads(to_prov_json(sample_document()))
        keys = list(payload["entity"])
        assert keys == sorted(keys)

    def test_attribute_keys_sorted_and_stringly_typed(self):
        payload = json.loads(to_prov_json(sample_document()))
        entity = payload["entity"]["yProv4DA:inputs/results.csv"]
        assert list(entity) == sorted(entity)
        assert entity["yprov:copied"] == "true"
        assert entity["yprov:size_bytes"] == "120"
        assert entity["yprov:role"] == "Input"
        assert entity["yprov:logged_by"] == "auto"

    def test_activity_attributes(self):
        payload = json.loads(to_prov_json(sample_document()))
        activity = payload["activity"]["yProv4DA:experiment_run"]
        assert activity["prov:startTime"] == "2026-08-10T09:00:00.000Z"
        assert activity["prov:endTime"] == "2026-08-10T09:00:02.500Z"
        assert activity["yprov:command"] == "python examples/main.py"
        assert activity["yprov:exit_status"] == "0"
        assert "yprov:git_commit" not in activity

    def test_relation_object_shapes(self):
        payload = json.loads(to_prov_json(sample_document()))
        used = payload["used"]["yProv4DA:u0"]
        assert used == {
            "prov:activity": "yProv4DA:experiment_run",
            "prov:entity": "yProv4DA:inputs/results.csv",
        }
        generated = payload["wasGeneratedBy"]["yProv4DA:g0"]
        assert generated == {
            "prov:entity": "yProv4DA:outputs/example.png",
            "prov:activity": "yProv4DA:experiment_run",
        }
        associated = payload["wasAssociatedWith"]["yProv4DA:a0"]
        assert associated == {
            "prov:activity": "yProv4DA:experiment_run",
            "prov:agent": "yProv4DA:agent",
        }

    def test_empty_sections_omitted(self, meta, config):
        payload = json.loads(to_prov_json(build_document([], meta, config)))
        assert list(payload) == ["prefix", "activity", "agent", "wasAssociatedWith"]

    def test_byte_determinism(self):
        assert to_prov_json(sample_document()) == to_prov_json(sample_document())

    def test_output_format_conventions(self):
        data = to_prov_json(sample_document())
        text = data.decode("utf-8")
        assert "\r" not in text
        assert text.endswith("\n")
        assert not any(line != line.rstrip() for line in text.split("\n"))
        assert text[:13] == '{\n  "prefix":'

    def test_invalid_document_refused(self, meta, config):
        doc = build_document([make_record(sha256=None, size_bytes=None)], meta, config)
        with pytest.raises(DocumentError, match="sha256"):
            to_prov_json(doc)


class TestParseProvJson:
    def test_round_trip_structural_identity(self):
        doc = sample_document()
        assert parse_prov_json(to_prov_json(doc)) == doc

    def test_round_trip_byte_identity(self):
        data = to_prov_json(sample_document())
        assert to_prov_json(parse_prov_json(data)) == data

    def test_randomized_round_trips(self):
        rng = random.Random(20260810)
        for _ in range(25):
            doc = random_document(rng)
            data = to_prov_json(doc)
            again = parse_prov_json(data)
            assert again == doc
            assert to_prov_json(again) == data

    def test_empty_object_missing_sections(self):
        with pytest.raises(ProvJsonError, match="missing required sections"):
            parse_prov_json(b"{}")

    def test_undeclared_prefix_named(self):
        data = to_prov_json(sample_document()).decode()
        data = data.replace("yProv4DA:inputs/results.csv", "x:inputs/results.csv", 1)
        with pytest.raises(ProvJsonError, match="'x'"):
            parse_prov_json(data.encode())

    def test_unknown_top_level_section(self):
        payload = json.loads(to_prov_json(sample_document()))
        payload["wasDerivedFrom"] = {}
        with pytest.raises(ProvJsonError, match="wasDerivedFrom"):
            parse_prov_json(json.dumps(payload).encode())

    def test_malformed_relation_object(self):
        payload = json.loads(to_prov_json(sample_document()))
        payload["used"]["yProv4DA:u0"] = {"prov:activity": "yProv4DA:experiment_run"}
        with pytest.raises(ProvJsonError, match="used yProv4DA:u0"):
            parse_prov_json(json.dumps(payload).encode())

    def test_not_json_at_all(self):
        with pytest.raises(ProvJsonError):
            parse_prov_json(b"\xff\xfe not json")


def full_payload():
    """The sample document's PROV-JSON object, with every optional attribute set."""
    return json.loads(to_prov_json(sample_document(meta=make_meta(git_commit="c" * 40))))


def dump(payload) -> bytes:
    """Write a PROV-JSON object in the layout to_prov_json uses."""
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


class TestParseRefusesMalformedInput:
    """Every malformed input is a ProvJsonError, never another exception."""

    @pytest.mark.parametrize("section", ["activity", "used"])
    def test_a_section_that_is_not_an_object(self, section):
        payload = full_payload()
        payload[section] = []
        with pytest.raises(ProvJsonError, match=f"{section} section must be an object"):
            parse_prov_json(dump(payload))

    def test_a_relation_endpoint_that_is_not_a_string(self):
        payload = full_payload()
        payload["used"]["yProv4DA:u0"]["prov:entity"] = 1
        with pytest.raises(ProvJsonError, match="used yProv4DA:u0: 1 is not a qualified name"):
            parse_prov_json(dump(payload))

    def test_a_key_given_twice_is_refused(self):
        # json.loads alone keeps the last value: this parsed as exit status 0
        data = dump(full_payload()).replace(
            b'"yprov:exit_status": "0"', b'"yprov:exit_status": "9", "yprov:exit_status": "0"'
        )
        with pytest.raises(ProvJsonError, match="duplicate key 'yprov:exit_status'"):
            parse_prov_json(data)

    def test_json_nested_too_deeply_to_decode(self):
        with pytest.raises(ProvJsonError, match="not valid UTF-8 JSON"):
            parse_prov_json(b"[" * 100000 + b"]" * 100000)


class TestParseAcceptsOnlyWhatIsWritten:
    @pytest.mark.parametrize("text", [" 7", "7 ", "007", "+7", "-0", "1_000", "\u0661"])
    @pytest.mark.parametrize(
        "section,key,name",
        [
            ("activity", "yProv4DA:experiment_run", "yprov:exit_status"),
            ("entity", "yProv4DA:inputs/results.csv", "yprov:size_bytes"),
        ],
    )
    def test_an_integer_spelled_otherwise_than_str_writes_it(self, section, key, name, text):
        payload = full_payload()
        payload[section][key][name] = text
        with pytest.raises(ProvJsonError, match=re.escape(f"{name!r} is {text!r}")):
            parse_prov_json(dump(payload))

    def test_a_local_part_escaping_bytes_that_are_not_utf8(self):
        data = dump(full_payload()).replace(b"inputs/results.csv", b"inputs/%ff.csv")
        with pytest.raises(ProvJsonError, match="not UTF-8"):
            parse_prov_json(data)

    @pytest.mark.parametrize("section", ["entity", "used", "wasGeneratedBy"])
    def test_an_empty_section_is_never_written(self, section):
        payload = full_payload()
        payload[section] = {}
        with pytest.raises(ProvJsonError, match=f"{section} section is empty"):
            parse_prov_json(dump(payload))

    def test_an_agent_carries_no_other_attribute(self):
        payload = full_payload()
        payload["agent"]["yProv4DA:agent"]["yprov:shell"] = "bash"
        with pytest.raises(ProvJsonError, match="yprov:shell"):
            parse_prov_json(dump(payload))


def _paths(value, path=()):
    """The path to every value inside a JSON value, the value itself included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))


def _strings(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, str):
        yield value


_PAYLOAD = full_payload()
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text()
    # near misses of written text: padded, signed, grouped or non-ASCII numerals
    | st.text(alphabet="0123456789 +-_\u0661%fF:truesTZ.", max_size=8)
    # text the document holds elsewhere: other ids, other attribute values
    | st.sampled_from(sorted(set(_strings(_PAYLOAD)))),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@given(path=st.sampled_from(list(_paths(_PAYLOAD))), value=_JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_one_replaced_value_is_refused_or_written_back_byte_for_byte(path, value):
    payload = copy.deepcopy(_PAYLOAD)
    if path:
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        payload = value
    data = dump(payload)
    try:
        doc = parse_prov_json(data)
    except ProvJsonError:
        return
    assert validate(doc) or to_prov_json(doc) == data


_ROWS = [
    pytest.param(section, row, id=f"{section}-{row[0]}")
    for section, (_, _, rows, _) in serialize._NODES.items()
    for row in rows
]


def _node_with(payload, section, name):
    return next(attrs for attrs in payload[section].values() if name in attrs)


class TestAttributeTables:
    """One table per node kind states each PROV-JSON attribute once."""

    @pytest.mark.parametrize("section", list(serialize._NODES))
    def test_a_table_covers_every_field_of_its_node_class(self, section):
        node_class, _, rows, _ = serialize._NODES[section]
        fields = {field.name for field in dataclasses.fields(node_class)}
        assert sorted(row[1] for row in rows) == sorted(fields - {"id", "extra_attributes"})
        assert len({row[0] for row in rows}) == len(rows)

    @pytest.mark.parametrize("section,row", [p for p in _ROWS if not p.values[1][-1]])  # required
    def test_a_missing_required_attribute_is_named(self, section, row):
        payload = full_payload()
        del _node_with(payload, section, row[0])[row[0]]
        message = f"missing required attribute {row[0]!r}"
        with pytest.raises(ProvJsonError, match=re.escape(message)):
            parse_prov_json(dump(payload))

    @pytest.mark.parametrize("section,row", _ROWS)
    def test_a_malformed_value_is_named(self, section, row):
        name, _, _, from_text, _ = row
        written = _node_with(full_payload(), section, name)[name]
        malformed = [7, None, [written]] + ([] if from_text is str else [f" {written}"])
        for value in malformed:
            payload = full_payload()
            _node_with(payload, section, name)[name] = value
            with pytest.raises(ProvJsonError, match=re.escape(repr(name))):
                parse_prov_json(dump(payload))


class TestToDot:
    def test_sample_run_counts(self):
        text = to_dot(sample_document())
        node_lines = [l for l in text.splitlines() if "shape=" in l]
        edge_lines = [l for l in text.splitlines() if " -> " in l]
        # 3 entities + 1 activity + 1 agent + 1 attribute note
        assert len(node_lines) == 6
        # 2 used + 1 generated + 1 associated + 1 dashed note edge
        assert len(edge_lines) == 5
        assert sum(1 for l in edge_lines if "style=dashed" in l) == 1

    def test_empty_document_counts(self, meta, config):
        text = to_dot(build_document([], meta, config))
        node_lines = [l for l in text.splitlines() if "shape=" in l]
        edge_lines = [l for l in text.splitlines() if " -> " in l]
        assert len(node_lines) == 3  # activity + agent + note
        assert len(edge_lines) == 2
        assert sum(1 for l in edge_lines if 'label="wasAssociatedWith"' in l) == 1

    def test_shapes_by_node_kind(self):
        text = to_dot(sample_document())
        assert '"yProv4DA:inputs/results.csv" [label="inputs/results.csv", shape=ellipse];' in text
        assert 'shape=box' in text
        assert 'shape=house' in text
        assert 'shape=note' in text

    def test_edge_labels_and_direction(self):
        text = to_dot(sample_document())
        assert (
            '"yProv4DA:experiment_run" -> "yProv4DA:inputs/results.csv" '
            '[label="used"];' in text
        )
        assert (
            '"yProv4DA:outputs/example.png" -> "yProv4DA:experiment_run" '
            '[label="wasGeneratedBy"];' in text
        )

    def test_note_lists_the_prov_json_activity_attributes(self):
        text = to_dot(sample_document(make_meta(git_commit="c" * 40)))
        lines = [
            "prov:endTime = 2026-08-10T09:00:02.500Z",
            "prov:startTime = 2026-08-10T09:00:00.000Z",
            "yprov:command = python examples/main.py",
            "yprov:exit_status = 0",
            "yprov:git_commit = " + "c" * 40,
        ]
        label = "".join(line + "\\l" for line in lines)
        assert (
            f'  "yProv4DA:experiment_run#attributes" [label="{label}", shape=note];\n'
            in text
        )

    def test_user_logged_marker(self, meta, config):
        doc = build_document(
            [make_record(logged_by=LoggedBy.USER)], meta, config
        )
        text = to_dot(doc)
        assert 'yprov_logged="user"' in text

    def test_byte_determinism(self):
        assert to_dot(sample_document()) == to_dot(sample_document())

    def test_node_statements_sorted_by_id(self):
        text = to_dot(sample_document())
        node_lines = [l.strip() for l in text.splitlines() if "shape=" in l]
        ids = [l.split('"')[1] for l in node_lines]
        assert ids == sorted(ids)


class TestRenderSvg:
    def _fake_renderer(self, tmp_path, body):
        script = tmp_path / "fake-dot"
        script.write_text("#!/bin/sh\n" + body)
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return str(script)

    def test_svg_bytes_from_renderer(self, tmp_path):
        renderer = self._fake_renderer(
            tmp_path,
            "cat > /dev/null\n"
            "printf '<?xml version=\"1.0\"?>\\n<svg xmlns=\"http://www.w3.org/2000/svg\"/>\\n'\n",
        )
        svg = render_svg(to_dot(sample_document()), renderer=renderer)
        assert svg.startswith(b"<?xml")

    def test_missing_renderer(self):
        with pytest.raises(RendererError, match="definitely-absent-tool"):
            render_svg("digraph g {}", renderer="definitely-absent-tool")

    def test_renderer_failure_carries_diagnostics(self, tmp_path):
        renderer = self._fake_renderer(
            tmp_path, "cat > /dev/null\necho 'syntax error in line 1' >&2\nexit 1\n"
        )
        with pytest.raises(RendererError, match="syntax error in line 1"):
            render_svg("this is not dot", renderer=renderer)

    @pytest.mark.skipif(shutil.which("dot") is None, reason="graphviz not installed")
    def test_real_graphviz_accepts_our_dot(self):
        svg = render_svg(to_dot(sample_document()))
        assert b"<svg" in svg


class TestRocrateMetadata:
    def _segment(self):
        return RunSegment(
            name="experiment_run",
            records=[
                make_record("inputs/results.csv"),
                make_record(
                    "outputs/example.png",
                    category=Category.OUTPUT,
                    sha256="b" * 64,
                    size_bytes=2048,
                ),
                make_record(
                    "src/examples/main.py",
                    category=Category.SOURCE,
                    sha256="c" * 64,
                    size_bytes=300,
                ),
                make_record(
                    "inputs/huge.bin",
                    copied=False,
                    skip_reason="size_threshold",
                    sha256="d" * 64,
                    size_bytes=99_000_000,
                ),
            ],
        )

    def test_graph_structure(self, meta, config):
        payload = json.loads(to_rocrate_metadata(self._segment(), meta))
        assert payload["@context"] == "https://w3id.org/ro/crate/1.1/context"
        descriptor, root = payload["@graph"][0], payload["@graph"][1]
        assert descriptor["@id"] == "ro-crate-metadata.json"
        assert descriptor["@type"] == "CreativeWork"
        assert descriptor["about"] == {"@id": "./"}
        assert descriptor["conformsTo"] == {"@id": "https://w3id.org/ro/crate/1.1"}
        assert root["@id"] == "./"
        assert root["@type"] == "Dataset"
        assert root["name"] == "experiment_run"
        assert root["datePublished"] == "2026-08-10T09:00:02.500Z"

    def test_haspart_lists_copied_files_plus_provenance(self, meta, config):
        payload = json.loads(to_rocrate_metadata(self._segment(), meta))
        parts = [p["@id"] for p in payload["@graph"][1]["hasPart"]]
        assert parts == [
            "inputs/results.csv",
            "outputs/example.png",
            "src/examples/main.py",
            "provenance.json",
        ]

    def test_file_entities(self, meta, config):
        payload = json.loads(to_rocrate_metadata(self._segment(), meta))
        files = {e["@id"]: e for e in payload["@graph"][2:]}
        png = files["outputs/example.png"]
        assert png["@type"] == "File"
        assert png["contentSize"] == 2048
        assert png["encodingFormat"] == "image/png"
        assert png["sha256"] == "b" * 64
        source = files["src/examples/main.py"]
        assert source["@type"] == ["File", "SoftwareSourceCode"]
        assert "inputs/huge.bin" not in files

    def test_entity_key_order_id_and_type_first_then_sorted(self, meta, config):
        payload = json.loads(to_rocrate_metadata(self._segment(), meta))
        for entity in payload["@graph"]:
            keys = list(entity)
            assert keys[0] == "@id"
            assert keys[1] == "@type"
            assert keys[2:] == sorted(keys[2:])

    def test_zero_record_segment(self, meta, config):
        payload = json.loads(
            to_rocrate_metadata(RunSegment(name="empty"), meta)
        )
        parts = [p["@id"] for p in payload["@graph"][1]["hasPart"]]
        assert parts == ["provenance.json"]

    def test_copied_record_without_digest_is_an_error(self, meta, config):
        segment = RunSegment(
            name="broken", records=[make_record(sha256=None, size_bytes=None)]
        )
        with pytest.raises(DocumentError):
            to_rocrate_metadata(segment, meta)

    def test_byte_determinism(self, meta, config):
        first = to_rocrate_metadata(self._segment(), meta)
        second = to_rocrate_metadata(self._segment(), meta)
        assert first == second


class TestMediaTypes:
    # Spot values checked against the IANA media-type registry.
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("plot.png", "image/png"),
            ("data.csv", "text/csv"),
            ("figure.svg", "image/svg+xml"),
            ("archive.xyz", "application/octet-stream"),
            ("noextension", "application/octet-stream"),
            ("script.py", "text/x-python"),
            ("notes.txt", "text/plain"),
        ],
    )
    def test_extension_map(self, name, expected):
        assert media_type_for(name) == expected
