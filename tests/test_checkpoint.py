"""Checkpoint format: manifest + f64 LE data, checksums, params round-trip."""

import numpy as np
import pytest

from mtlab import checkpoint as ckpt
from mtlab import model as M
from mtlab.errors import CheckpointError


def test_arrays_round_trip(tmp_path):
    path = tmp_path / "x.ckpt"
    arrays = {
        "a": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b.c": np.array([1.5]),
    }
    ckpt.save_arrays(path, arrays, {"note": "hello", "n": 3})
    loaded, meta = ckpt.load_arrays(path)
    np.testing.assert_array_equal(loaded["a"], arrays["a"])
    np.testing.assert_array_equal(loaded["b.c"], arrays["b.c"])
    assert meta == {"note": "hello", "n": 3}


def test_data_is_little_endian_f64_with_text_manifest(tmp_path):
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"w": np.array([1.0, 2.0])})
    raw = path.read_bytes()
    header, _, data = raw.partition(b"\n\n")
    text = header.decode("utf-8")
    assert text.startswith("mtlab-checkpoint v1")
    assert "tensor w [2] 0" in text
    assert "checksum sha256:" in text
    np.testing.assert_array_equal(np.frombuffer(data, dtype="<f8"), [1.0, 2.0])


def test_corruption_detected(tmp_path):
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"w": np.arange(4.0)})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        ckpt.load_arrays(path)


def test_params_round_trip(tmp_path, tiny_model_config):
    params = M.init(tiny_model_config, seed=3)
    path = tmp_path / "params.ckpt"
    ckpt.save_params(path, params, {"tokenizer_sha256": "abc"})
    loaded, meta = ckpt.load_params(path)
    assert meta["tokenizer_sha256"] == "abc"
    assert loaded.config == tiny_model_config
    for name in params.names():
        np.testing.assert_allclose(loaded[name].data, params[name].data, atol=1e-7)


def test_identical_inits_produce_identical_checkpoints(tmp_path, tiny_model_config):
    a_path, b_path = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_params(a_path, M.init(tiny_model_config, seed=5))
    ckpt.save_params(b_path, M.init(tiny_model_config, seed=5))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_mismatched_names_rejected(tmp_path, tiny_model_config):
    params = M.init(tiny_model_config, seed=0)
    path = tmp_path / "bad.ckpt"
    arrays = {k: v.data for k, v in params.tensors.items()}
    del arrays["embed"]
    from dataclasses import asdict

    ckpt.save_arrays(path, arrays, {"config": asdict(tiny_model_config)})
    with pytest.raises(CheckpointError):
        ckpt.load_params(path)

