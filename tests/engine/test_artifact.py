"""The durable artifact format: roundtrips, zero-copy, fault injection.

Every corruption test asserts the same contract: a damaged artifact
raises :class:`~repro.engine.artifact.ArtifactError` — never a crash,
never a silently wrong engine — because the store treats any
``ArtifactError`` as a miss and recompiles.
"""

import mmap

import pytest

from repro.engine.artifact import (
    FORMAT_VERSION,
    MAGIC,
    ArtifactError,
    artifact_meta,
    deserialize_engine,
    serialize_engine,
)
from repro.engine.compiled import compile_spanner

pytestmark = pytest.mark.kernel

PATTERN = ".*x{a+}.*"
DOCUMENT = "baa ab"

#: A pattern whose planned automaton exceeds 64 states, forcing the
#: wide-mask (eager ``int.from_bytes``) deserialization path.
WIDE_PATTERN = "x{" + "a" * 70 + "}"


@pytest.fixture()
def blob():
    return serialize_engine(compile_spanner(PATTERN), opt_level=1)


class TestRoundtrip:
    def test_byte_identical_evaluation(self, blob):
        original = compile_spanner(PATTERN)
        restored = deserialize_engine(blob)
        assert restored.fingerprint == original.fingerprint
        assert restored.mappings(DOCUMENT) == original.mappings(DOCUMENT)
        assert list(restored.extract(DOCUMENT)) == list(
            original.extract(DOCUMENT)
        )

    def test_serialization_is_deterministic(self, blob):
        assert serialize_engine(compile_spanner(PATTERN), opt_level=1) == blob

    def test_meta_describes_the_engine(self, blob):
        meta = artifact_meta(blob)
        engine = compile_spanner(PATTERN)
        assert meta["fingerprint"] == engine.fingerprint
        assert meta["opt_level"] == 1
        assert meta["num_states"] == engine.tables.num_states
        assert meta["mask_width"] == 8  # ≤64 states: the zero-copy width

    def test_meta_records_pattern_text_when_given(self):
        meta = artifact_meta(
            serialize_engine(compile_spanner(PATTERN), expression=PATTERN)
        )
        assert meta["expression"] == PATTERN

    def test_mmap_load_evaluates_identically(self, blob, tmp_path):
        path = tmp_path / "engine.rpra"
        path.write_bytes(blob)
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        restored = deserialize_engine(mapped)
        assert restored.mappings(DOCUMENT) == compile_spanner(
            PATTERN
        ).mappings(DOCUMENT)

    def test_wide_automaton_roundtrips(self):
        engine = compile_spanner(WIDE_PATTERN)
        assert engine.tables.num_states > 64
        wide = serialize_engine(engine)
        assert artifact_meta(wide)["mask_width"] > 8
        restored = deserialize_engine(wide)
        document = "a" * 70
        assert restored.mappings(document) == engine.mappings(document)

    def test_expected_fingerprint_accepts_the_right_key(self, blob):
        engine = compile_spanner(PATTERN)
        restored = deserialize_engine(
            blob, expected_fingerprint=engine.fingerprint
        )
        assert restored.fingerprint == engine.fingerprint


#: Both readers validate the envelope through one check; every envelope
#: corruption test runs against each.
READERS = (deserialize_engine, artifact_meta)


class TestFaultInjection:
    def test_truncated_header(self, blob):
        for read in READERS:
            with pytest.raises(ArtifactError):
                read(blob[:20])

    def test_truncated_payload(self, blob):
        for read in READERS:
            with pytest.raises(ArtifactError, match="truncated"):
                read(blob[:-5])

    @pytest.mark.parametrize(
        "offset_fraction", [0.1, 0.3, 0.5, 0.7, 0.9]
    )
    def test_bit_flip_anywhere_in_the_payload(self, blob, offset_fraction):
        corrupt = bytearray(blob)
        position = 48 + int((len(blob) - 48) * offset_fraction)
        corrupt[position] ^= 0x40
        for read in READERS:
            with pytest.raises(ArtifactError):
                read(bytes(corrupt))

    def test_wrong_magic(self, blob):
        assert blob[:4] == MAGIC
        for read in READERS:
            with pytest.raises(ArtifactError, match="magic"):
                read(b"NOPE" + blob[4:])

    def test_wrong_format_version(self, blob):
        bumped = (
            blob[:4]
            + (FORMAT_VERSION + 1).to_bytes(4, "little")
            + blob[8:]
        )
        with pytest.raises(ArtifactError, match="format"):
            deserialize_engine(bumped)
        with pytest.raises(ArtifactError, match="format"):
            artifact_meta(bumped)

    def test_wrong_expected_fingerprint(self, blob):
        with pytest.raises(ArtifactError, match="fingerprint"):
            deserialize_engine(blob, expected_fingerprint="0" * 64)

    def test_meta_fingerprint_must_match_the_automaton(self, blob):
        # Re-checksum a payload whose meta lies about the fingerprint:
        # the envelope validates, the structural check must still catch it.
        import hashlib
        import json

        payload = bytearray(blob[48:])
        meta_len = int.from_bytes(payload[:4], "little")
        meta = json.loads(bytes(payload[4 : 4 + meta_len]))
        meta["fingerprint"] = "f" * 64
        forged_meta = json.dumps(
            meta, separators=(",", ":"), sort_keys=True
        ).encode()
        assert len(forged_meta) == meta_len  # same-length forgery
        payload[4 : 4 + meta_len] = forged_meta
        forged = (
            blob[:8]
            + hashlib.sha256(bytes(payload)).digest()
            + len(payload).to_bytes(8, "little")
            + bytes(payload)
        )
        with pytest.raises(ArtifactError, match="fingerprint"):
            deserialize_engine(forged)

    def test_empty_buffer(self):
        with pytest.raises(ArtifactError):
            deserialize_engine(b"")
        with pytest.raises(ArtifactError):
            artifact_meta(b"")
