"""Unit tests for the PDF stream filters."""

import pytest

from repro.pdf import filters


SAMPLES = [
    b"",
    b"a",
    b"hello world",
    b"\x00\x01\x02\xff" * 10,
    bytes(range(256)),
    b"A" * 1000,
    b"abc" * 321 + b"\x00",
]


@pytest.mark.parametrize("data", SAMPLES, ids=range(len(SAMPLES)))
@pytest.mark.parametrize(
    "name",
    ["FlateDecode", "ASCIIHexDecode", "ASCII85Decode", "RunLengthDecode", "LZWDecode"],
)
def test_roundtrip_every_filter(name, data):
    assert filters.decode(name, filters.encode(name, data)) == data


def test_flate_tolerates_truncation():
    encoded = filters.flate_encode(b"hello world, this is a longer buffer")
    # drop the trailing checksum bytes; readers still inflate the prefix
    partial = filters.flate_decode(encoded[:-4])
    assert partial.startswith(b"hello")


def test_flate_garbage_raises():
    with pytest.raises(filters.FilterError):
        filters.flate_decode(b"not deflate data")


def test_ascii_hex_ignores_whitespace():
    assert filters.ascii_hex_decode(b"48 65 6c\n6c 6f>") == b"Hello"


def test_ascii_hex_odd_digit_padded():
    assert filters.ascii_hex_decode(b"414>") == b"A@"


def test_ascii_hex_bad_digit():
    with pytest.raises(filters.FilterError):
        filters.ascii_hex_decode(b"4G>")


def test_ascii85_z_shortcut():
    assert filters.ascii85_decode(b"z~>") == b"\0\0\0\0"


def test_ascii85_known_vector():
    # "Man " encodes to 9jqo^ in ascii85
    assert filters.ascii85_encode(b"Man ") == b"9jqo^~>"
    assert filters.ascii85_decode(b"9jqo^~>") == b"Man "


def test_run_length_eod_terminates():
    encoded = filters.run_length_encode(b"aaaabcd")
    assert encoded.endswith(b"\x80")


def test_run_length_truncated_raises():
    with pytest.raises(filters.FilterError):
        filters.run_length_decode(b"\x05ab")


def test_lzw_bad_code_raises():
    with pytest.raises(filters.FilterError):
        filters.lzw_decode(b"\xff\xff\xff\xff")


def test_unsupported_filter_raises():
    with pytest.raises(filters.FilterError):
        filters.decode("JPXDecode", b"")
    with pytest.raises(filters.FilterError):
        filters.encode("JPXDecode", b"")


def test_abbreviated_names_accepted():
    data = b"abbreviated"
    assert filters.decode("Fl", filters.encode("Fl", data)) == data
    assert filters.decode("AHx", filters.encode("AHx", data)) == data


@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4, 5])
def test_cascade_roundtrip(levels):
    names = filters.cascade_names(levels)
    assert len(names) == levels
    data = b"cascade payload \x00\xff" * 17
    encoded = filters.encode_cascade(data, names)
    decoded = encoded
    for name in names:
        decoded = filters.decode(name, decoded)
    assert decoded == data


def test_cascade_names_first_is_base():
    assert filters.cascade_names(3, base="LZWDecode")[0] == "LZWDecode"


def test_decode_stream_applies_cascade():
    from repro.pdf.objects import PDFStream

    stream = PDFStream()
    stream.set_decoded_data(b"nested", ["FlateDecode", "ASCII85Decode", "RunLengthDecode"])
    assert stream.decoded_data() == b"nested"


def test_lzw_long_input_with_table_reset():
    data = bytes((i * 7 + j) % 256 for i in range(200) for j in range(40))
    assert filters.lzw_decode(filters.lzw_encode(data)) == data


class TestBudgetPlacement:
    """The post-extend guarantee: decoders never return more bytes than
    ``max_output``, not even on their final chunk."""

    def test_run_length_final_run_checked(self):
        from repro.limits import ResourceLimitExceeded

        # One 128-byte repeat run and *no* EOD byte: with the old
        # top-of-loop check the loop exited right after the final
        # extend and returned all 128 bytes despite a 100-byte budget.
        data = bytes([129, 65])
        with pytest.raises(ResourceLimitExceeded):
            filters.run_length_decode(data, max_output=100)

    def test_run_length_exact_budget_ok(self):
        data = bytes([129, 65, 128])
        assert filters.run_length_decode(data, max_output=128) == b"A" * 128

    def test_lzw_eod_path_checked(self):
        from repro.limits import ResourceLimitExceeded

        encoded = filters.lzw_encode(b"A" * 64)  # ends with an EOD code
        with pytest.raises(ResourceLimitExceeded):
            filters.lzw_decode(encoded, max_output=32)

    def test_lzw_exact_budget_ok(self):
        encoded = filters.lzw_encode(b"A" * 64)
        assert filters.lzw_decode(encoded, max_output=64) == b"A" * 64


class TestCascadeMaterialisation:
    def test_multi_layer_cascade_decodes(self):
        data = b"payload " * 100
        names = ["FlateDecode", "ASCIIHexDecode", "RunLengthDecode", "ASCII85Decode"]
        encoded = filters.encode_cascade(data, names)
        out = encoded
        for name in names:
            out = filters.decode(name, out)
        assert out == data

    @pytest.mark.diff
    def test_large_cascade_chained_equals_per_layer(self):
        """A 360 KB payload through Flate -> ASCIIHex -> RunLength: the
        chained bytearray decode, one ``bytes`` per layer and the
        payload itself all agree."""
        from repro.pdf.objects import PDFArray, PDFDict, PDFName, PDFStream

        names = ["FlateDecode", "ASCIIHexDecode", "RunLengthDecode"]
        payload = b"the quick brown fox jumps over the lazy dog " * 512 * 16
        dictionary = PDFDict()
        dictionary[PDFName("Filter")] = PDFArray([PDFName(n) for n in names])
        stream = PDFStream(dictionary, filters.encode_cascade(payload, names))
        per_layer = stream.raw_data
        for name in names:
            per_layer = filters.decode(name, per_layer)
        assert filters.decode_stream(stream) == per_layer == payload

    def test_raw_decoders_accept_bytearray(self):
        # Cascades hand bytearrays between layers; every decoder must
        # accept them.
        for name in filters.SUPPORTED_FILTERS:
            encoded = bytearray(filters.encode(name, b"hello world"))
            assert filters.decode(name, encoded) == b"hello world"
