"""FTNT archives: byte determinism, round-trips, the error taxonomy."""

import numpy as np
import pytest

from funnel.checkpoint import (BadMagic, BadVersion, CheckpointError, ShapeMismatch,
                               TruncatedPayload, load, save)
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
        from funnel.autodiff import Tensor
        path = tmp_path / "f32.ftnt"
        t = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2))
        save({"x": t}, path)
        out = load(path)["x"]
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, t.data)


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
        from funnel.autodiff import Tensor
        other["embed/token"] = Tensor(np.zeros((5, 16)))
        save(other, path)
        template = params
        with pytest.raises(ShapeMismatch, match="embed/token"):
            load(path, expected=template)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(tmp_path / "nope.ftnt")

    def test_duplicate_entry_rejected(self, tmp_path):
        import struct
        from funnel.autodiff import Tensor
        path = tmp_path / "dup.ftnt"
        save({"x": Tensor(np.zeros(2))}, path)
        blob = path.read_bytes()
        entry = blob[12:]
        doubled = blob[:4] + struct.pack("<II", 1, 2) + entry + entry
        path.write_bytes(doubled)
        with pytest.raises(CheckpointError, match="duplicate"):
            load(path)
