"""FTNT archives: byte determinism, round-trips, the error taxonomy, the mapped load."""

import struct
import tracemalloc

import numpy as np
import pytest

from funnel.autodiff import Tensor
from funnel.checkpoint import (BadMagic, BadVersion, CheckpointError, CorruptHeader,
                               ShapeMismatch, TruncatedPayload, load, save)
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import ModelConfig, build_params, param_specs


LAYOUT = LayoutSpec(blocks=(BlockSpec(1), BlockSpec(1)), hidden=16, decoder_layers=1,
                    head_dim=8)


@pytest.fixture
def params():
    return build_params(ModelConfig(layout=LAYOUT, vocab_size=11, seed=0))


class TestRoundTrip:
    def test_bit_equality(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        loaded = load(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].data.dtype == params[name].data.dtype

    def test_specs_template_gives_trainable_tensors(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        loaded = load(path, expected=param_specs(ModelConfig(layout=LAYOUT, vocab_size=11)))
        assert set(loaded) == set(params)
        assert all(t.requires_grad for t in loaded.values())

    def test_byte_determinism(self, params, tmp_path):
        a, b = tmp_path / "a.ftnt", tmp_path / "b.ftnt"
        save(params, a)
        save(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.ftnt"
        save({}, path)
        assert load(path) == {}

    def test_f32_entries_survive(self, tmp_path):
        path = tmp_path / "f32.ftnt"
        t = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2))
        save({"x": t}, path)
        out = load(path)["x"]
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, t.data)


    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # the layout in the module docstring, written out independently
        tensors = {"b": Tensor(np.arange(6.0).reshape(3, 2).T),   # not contiguous
                   "a": Tensor(np.float32(1.5)), "c": Tensor(np.zeros((0, 4)))}
        expected = b"FTNT" + struct.pack("<II", 2, 3)
        for name in sorted(tensors):
            data = tensors[name].data
            expected += struct.pack("<I", len(name)) + name.encode()
            expected += struct.pack("<BB", int(data.dtype == np.float64), data.ndim)
            expected += struct.pack(f"<{data.ndim}Q", *data.shape)
            expected += bytes(-len(expected) % 64) + data.tobytes()
        path = tmp_path / "m.ftnt"
        save(tensors, path)
        assert path.read_bytes() == expected
        for name, t in load(path).items():
            assert t.data.dtype == tensors[name].dtype
            np.testing.assert_array_equal(t.data, tensors[name].data)


class TestMappedLoad:
    def test_arrays_are_aligned_and_writable(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save({**params, "f32": Tensor(np.ones(3, np.float32)), "scalar": Tensor(np.float64(2.0)),
              "void": Tensor(np.zeros((0, 5)))}, path)
        for name, t in load(path).items():
            assert t.data.ctypes.data % 64 == 0, name
            assert t.data.flags.writeable, name

    def test_writes_stay_private_to_the_process(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        before = path.read_bytes()
        loaded = load(path)
        for t in loaded.values():
            t.data[...] = 7.0
        assert path.read_bytes() == before
        for name, t in load(path).items():
            np.testing.assert_array_equal(t.data, params[name].data)

    def test_save_over_a_loaded_archive_leaves_the_loaded_tree(self, params, tmp_path):
        # save renames a new file over the path; the loaded tree keeps mapping the old one
        path = tmp_path / "m.ftnt"
        save(params, path)
        loaded = load(path)
        save({name: Tensor(t.data + 1.0) for name, t in params.items()}, path)
        for name, t in loaded.items():
            np.testing.assert_array_equal(t.data, params[name].data)
        for name, t in load(path).items():
            np.testing.assert_array_equal(t.data, params[name].data + 1.0)


def entry(name: str, dims: tuple, code: int = 1) -> bytes:
    """One entry header (no payload) in the archive layout."""
    raw = name.encode()
    return (struct.pack("<I", len(raw)) + raw + struct.pack("<BB", code, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims))


def archive(*entries: bytes | tuple[bytes, bytes], count: int | None = None,
            version: int = 2) -> bytes:
    """An archive of ``entries``: bytes go in as they are; a (header, payload) pair gets the
    zero padding that starts its payload on a 64-byte boundary of the file."""
    blob = b"FTNT" + struct.pack("<II", version, len(entries) if count is None else count)
    for e in entries:
        if isinstance(e, tuple):
            blob += e[0] + bytes(-(len(blob) + len(e[0])) % 64) + e[1]
        else:
            blob += e
    return blob


class TestErrors:
    def test_bad_magic(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load(path)

    def test_bad_version(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersion):
            load(path)

    def test_version_1_archive_rejected(self, params, tmp_path):
        # version 1's layout: no padding before the payloads
        blob = b"".join(entry(name, t.shape) + t.data.tobytes()
                        for name, t in sorted(params.items()))
        path = tmp_path / "v1.ftnt"
        path.write_bytes(archive(blob, count=len(params), version=1))
        with pytest.raises(BadVersion, match="version 1"):
            load(path)

    def test_truncated_payload(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises((TruncatedPayload, CheckpointError)):
            load(path)

    def test_shape_mismatch_names_tensor(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        bigger = LayoutSpec(blocks=(BlockSpec(1), BlockSpec(1), BlockSpec(1)),
                            hidden=16, decoder_layers=1, head_dim=8)
        template = param_specs(ModelConfig(layout=bigger, vocab_size=11, seed=0))
        with pytest.raises(ShapeMismatch, match="enc/b2"):
            load(path, expected=template)

    def test_dtype_mismatch_rejected(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        save(params, path)
        template = param_specs(ModelConfig(layout=LAYOUT, vocab_size=11, dtype="f32"))
        with pytest.raises(ShapeMismatch, match="float64.*expected float32"):
            load(path, expected=template)

    def test_wrong_shape_entry(self, params, tmp_path):
        path = tmp_path / "m.ftnt"
        other = dict(params)
        other["embed/token"] = Tensor(np.zeros((5, 16)))
        save(other, path)
        template = params
        with pytest.raises(ShapeMismatch, match="embed/token"):
            load(path, expected=template)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(tmp_path / "nope.ftnt")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot write"):
            save({"w": Tensor(np.zeros(2))}, tmp_path / "no_such_dir" / "m.ftnt")

    def test_failed_save_keeps_the_earlier_archive(self, tmp_path):
        """A save that raises part-way leaves the archive it would replace byte-identical and
        no temporary file in the directory."""
        path = tmp_path / "m.ftnt"
        save({"x": Tensor(np.arange(3.0))}, path)
        good = path.read_bytes()
        bad = Tensor(np.zeros(2))
        bad.data = np.zeros(2, dtype=np.float16)
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            save({"a": Tensor(np.ones(4)), "b": bad}, path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["m.ftnt"]
        np.testing.assert_array_equal(load(path)["x"].data, np.arange(3.0))

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.ftnt"
        x = (entry("x", (2,)), bytes(16))
        path.write_bytes(archive(x, x))
        with pytest.raises(CheckpointError, match="duplicate"):
            load(path)

    def test_non_zero_padding_rejected(self, tmp_path):
        path = tmp_path / "pad.ftnt"
        blob = bytearray(archive((entry("x", (1,)), bytes(8))))
        blob[-9] = 1                                   # the last pad byte before the payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeader, match="non-zero padding"):
            load(path)

    @pytest.mark.parametrize("blob", [
        b"FTNT\x02\x00",                                         # shorter than the fixed header
        archive(count=1),                                          # entry header missing
        archive(struct.pack("<I", 50) + b"x"),                     # name runs past end of file
        archive(b"\x01\x00\x00\x00\xff\x01\x01" + bytes(8) + bytes(8)),  # name not UTF-8
        archive((entry("x", (1,), code=7), bytes(8))),             # unknown dtype
        archive(entry("x", (2, 3))[:-4]),                          # dims cut short
        archive((entry("x", (1,) * 5), bytes(8))),                 # rank above 4
        archive(entry("x", (1,)) + bytes(8)),                      # padding runs past end of file
        archive((entry("x", (1,)), bytes(8) + b"extra")),          # trailing bytes
    ])
    def test_corrupt_headers(self, blob, tmp_path):
        path = tmp_path / "bad.ftnt"
        path.write_bytes(blob)
        with pytest.raises(CorruptHeader):
            load(path)

    @pytest.mark.parametrize("dims", [(1 << 40,), (1 << 33, 1 << 33)])
    def test_oversized_entry_is_truncated_before_allocation(self, dims, tmp_path):
        # 2^40 elements would be an 8 TiB array; 2^66 overflows a 64-bit product
        path = tmp_path / "huge.ftnt"
        path.write_bytes(archive((entry("x", dims), bytes(64))))
        with pytest.raises(TruncatedPayload, match="'x'"):
            load(path)


def test_load_holds_no_second_copy_of_the_archive(tmp_path):
    """Tensors are views of the mapped file: loading allocates next to nothing."""
    config = ModelConfig(layout="B2-2H128D2", vocab_size=64, seed=0)
    params = build_params(config)
    payload = sum(t.data.nbytes for t in params.values())
    path = tmp_path / "m.ftnt"
    save(params, path)
    del params
    specs = param_specs(config)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load(path, expected=specs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sum(t.data.nbytes for t in loaded.values()) == payload
    assert peak < 0.05 * payload, f"peak {peak / payload:.3f}x the payload bytes"
