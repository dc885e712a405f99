"""The wire protocol: parsing, validation, and response encoding."""

import json

import pytest

from repro.server.protocol import (
    ENUMERATE,
    EVALUATE,
    NDJSON_CONTENT_TYPE,
    ProtocolError,
    encode_result_line,
    encode_results,
    parse_request,
    result_entry,
)


def parse(payload, mode=ENUMERATE, content_type=""):
    raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    return parse_request(raw, mode, content_type)


class TestJsonRequests:
    def test_single_document(self):
        request = parse({"pattern": "x{a}", "document": "ab"})
        assert request.pattern == "x{a}"
        assert request.documents == (("doc-00000", "ab"),)
        assert request.opt_level is None and request.spans is False

    def test_document_list_generates_ids(self):
        request = parse({"pattern": "x{a}", "documents": ["ab", "ba"]})
        assert [doc_id for doc_id, _ in request.documents] == [
            "doc-00000",
            "doc-00001",
        ]

    def test_document_objects_and_mapping(self):
        by_objects = parse(
            {
                "pattern": "x{a}",
                "documents": [{"id": "left", "text": "ab"}, {"text": "ba"}],
            }
        )
        assert by_objects.documents == (("left", "ab"), ("doc-00001", "ba"))
        by_mapping = parse(
            {"pattern": "x{a}", "documents": {"one": "ab", "two": "ba"}}
        )
        assert by_mapping.documents == (("one", "ab"), ("two", "ba"))

    def test_options(self):
        request = parse(
            {"pattern": "x{a}", "document": "a", "opt_level": 2, "spans": True}
        )
        assert request.opt_level == 2 and request.spans is True
        assert request.key == ("x{a}", 2)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"document": "a"}, "pattern"),
            ({"pattern": "", "document": "a"}, "pattern"),
            ({"pattern": "x{a}"}, "exactly one"),
            ({"pattern": "x{a}", "document": "a", "documents": ["b"]}, "exactly one"),
            ({"pattern": "x{a}", "documents": []}, "empty"),
            ({"pattern": "x{a}", "documents": 7}, "list or an object"),
            ({"pattern": "x{a}", "document": 7}, "string"),
            ({"pattern": "x{a}", "documents": [{"id": "d"}]}, "text"),
            ({"pattern": "x{a}", "document": "a", "opt_level": 9}, "opt_level"),
            ({"pattern": "x{a}", "document": "a", "spans": "yes"}, "boolean"),
            (
                {
                    "pattern": "x{a}",
                    "documents": [{"id": "d", "text": "a"}, {"id": "d", "text": "b"}],
                },
                "duplicate",
            ),
            ({"pattern": "x{a}", "document": "a", "opt_level": True}, "opt_level"),
            ({"pattern": "x{a}", "document": "a", "opt_level": 1.0}, "opt_level"),
        ],
    )
    def test_rejections(self, payload, message):
        with pytest.raises(ProtocolError, match=message):
            parse(payload)

    def test_invalid_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            parse(b"{not json")
        with pytest.raises(ProtocolError, match="JSON object"):
            parse(b'["list"]')


class TestNdjsonRequests:
    def encode(self, *lines) -> bytes:
        return ("\n".join(json.dumps(line) for line in lines) + "\n").encode()

    def test_header_then_documents(self):
        request = parse_request(
            self.encode({"pattern": "x{a}"}, "ab", {"id": "d2", "text": "ba"}),
            ENUMERATE,
            NDJSON_CONTENT_TYPE,
        )
        assert request.ndjson is True
        assert request.documents == (("doc-00000", "ab"), ("d2", "ba"))

    def test_rejects_documents_in_header(self):
        with pytest.raises(ProtocolError, match="unknown NDJSON header"):
            parse_request(
                self.encode({"pattern": "x{a}", "documents": ["a"]}),
                ENUMERATE,
                NDJSON_CONTENT_TYPE,
            )

    def test_rejects_empty_and_headerless(self):
        with pytest.raises(ProtocolError, match="empty"):
            parse_request(b"", ENUMERATE, NDJSON_CONTENT_TYPE)
        with pytest.raises(ProtocolError, match="no document lines"):
            parse_request(
                self.encode({"pattern": "x{a}"}), ENUMERATE, NDJSON_CONTENT_TYPE
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            parse_request(
                self.encode(
                    {"pattern": "x{a}"},
                    {"id": "d", "text": "a"},
                    {"id": "d", "text": "b"},
                ),
                ENUMERATE,
                NDJSON_CONTENT_TYPE,
            )


class TestResponses:
    def test_evaluate_entry_carries_verdict(self):
        request = parse({"pattern": "x{a}", "document": "a"}, mode=EVALUATE)
        assert result_entry(request, "d", True, None) == {
            "doc": "d",
            "error": None,
            "matches": True,
        }
        assert result_entry(request, "d", None, "boom")["matches"] is None

    def test_enumerate_entry_decodes_spans(self):
        from repro.spans.span import Span

        request = parse(
            {"pattern": "x{a}", "document": "a", "spans": True}
        )
        entry = result_entry(request, "d", [{"x": Span(1, 2)}], None)
        assert entry["mappings"] == [{"x": [1, 2]}]

    def test_encode_results_is_canonical_json(self):
        request = parse({"pattern": "x{a}", "document": "a"})
        body = encode_results(
            request, [result_entry(request, "d", [{"x": "a"}], None)]
        )
        decoded = json.loads(body)
        assert decoded["pattern"] == "x{a}"
        assert decoded["results"][0]["mappings"] == [{"x": "a"}]

    def test_result_line_is_one_json_line(self):
        request = parse({"pattern": "x{a}", "document": "a"})
        line = encode_result_line(request, "d", [], None)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert json.loads(line) == {"doc": "d", "error": None, "mappings": []}
