"""Checkpoint format: manifest + f32 or f64 LE data, checksums, params round-trip."""

from dataclasses import asdict
from pathlib import Path

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


def test_loaded_arrays_are_read_only_float64_views(tmp_path):
    path = tmp_path / "x.ckpt"
    arrays = {"w": np.arange(12, dtype=np.float32).reshape(3, 4), "s": np.array([2.5])}
    ckpt.save_arrays(path, arrays)
    loaded, _ = ckpt.load_arrays(path)
    for name, value in arrays.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape
        np.testing.assert_array_equal(loaded[name], value)
        assert not loaded[name].flags.writeable
        with pytest.raises(ValueError):
            loaded[name][...] = 0.0


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


def test_float32_arrays_stored_as_float32(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {"w": rng.standard_normal((5, 7)).astype(np.float32),
              "b": rng.standard_normal(7).astype(np.float32),
              "s": np.array(-0.0, dtype=np.float32)}
    ckpt.save_arrays(tmp_path / "f32.ckpt", arrays)
    ckpt.save_arrays(tmp_path / "f64.ckpt", {k: v.astype(np.float64) for k, v in arrays.items()})
    loaded, _ = ckpt.load_arrays(tmp_path / "f32.ckpt")
    for name, value in arrays.items():
        assert loaded[name].dtype == np.float32 and loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()
        assert not loaded[name].flags.writeable
    data32 = (tmp_path / "f32.ckpt").read_bytes().partition(b"\n\n")[2]
    data64 = (tmp_path / "f64.ckpt").read_bytes().partition(b"\n\n")[2]
    assert len(data32) * 2 == len(data64) == 8 * (35 + 7 + 1)


def test_file_without_dtype_line_reads_as_float64(tmp_path):
    # the files written before the dtype line, such as the benchmark's model
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"w": np.array([1.0, 2.5]), "v": np.array([[3.0]])})
    raw = path.read_bytes()
    assert raw.count(b"\ndtype <f8\n") == 1
    path.write_bytes(raw.replace(b"\ndtype <f8\n", b"\n"))
    loaded, _ = ckpt.load_arrays(path)
    assert loaded["w"].dtype == np.float64 and list(loaded["w"]) == [1.0, 2.5]
    assert loaded["v"].shape == (1, 1) and loaded["v"][0, 0] == 3.0


def test_corruption_detected(tmp_path):
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"w": np.arange(4.0)})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        ckpt.load_arrays(path)


def test_undecodable_header_refused(tmp_path):
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"w": np.arange(4.0)})
    path.write_bytes(b"\xff" + path.read_bytes()[1:])
    with pytest.raises(CheckpointError, match="not UTF-8"):
        ckpt.load_arrays(path)


def test_zero_dim_array_round_trips_its_shape(tmp_path):
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"s": np.array(2.5), "v": np.array([1.0])})
    assert "tensor s [] 0" in path.read_text(encoding="utf-8", errors="replace")
    loaded, _ = ckpt.load_arrays(path)
    assert loaded["s"].shape == () and loaded["s"] == 2.5
    assert loaded["v"].shape == (1,)


# a: shape [2,3] at offset 0, b: shape [4] at offset 48, 80 data bytes
@pytest.mark.parametrize("line, corrupt", [
    ("tensor a [2,3] 0", "tensor a [-1] 0"),  # a negative dimension
    ("tensor b [4] 48", "tensor b [4] 44"),  # an offset inside the previous tensor
    ("tensor a [2,3] 0", "tensor a [2,2] 0"),  # a gap before the next tensor
    ("tensor b [4] 48", "tensor b [3] 48"),  # data left over after the last tensor
    ("tensor b [4] 48", "tensor b [2.0,2] 48"),  # a dimension that is not an integer
])
def test_header_whose_tensors_do_not_tile_the_data_refused(tmp_path, line, corrupt):
    # the checksum covers the data only, so a bad header must fail the layout check
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(4.0)})
    raw = path.read_bytes()
    assert raw.count(line.encode()) == 1
    path.write_bytes(raw.replace(line.encode(), corrupt.encode()))
    with pytest.raises(CheckpointError):
        ckpt.load_arrays(path)


@pytest.mark.parametrize("line, corrupt", [
    ("tensor b [4] 48", "tensor b [4]"),  # no offset
    ("tensor b [4] 48", "tensor b [4 48"),  # a shape that is not JSON
    ("tensor b [4] 48", "tensor b 4 48"),  # a shape that is not a list
    ("tensor b [4] 48", "tensor b [4] 4x8"),  # an offset that is not an integer
    ("meta n=3", "meta n=3x"),  # a meta value that is not JSON
    ("dtype <f8", "dtype <i8"),  # a data dtype other than f32 or f64 LE
    ("dtype <f8", "dtype >f8"),
    ("dtype <f8", "dtype float64"),
])
def test_malformed_header_line_refused(tmp_path, line, corrupt):
    path = tmp_path / "x.ckpt"
    ckpt.save_arrays(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(4.0)}, {"n": 3})
    raw = path.read_bytes()
    assert raw.count(line.encode()) == 1
    path.write_bytes(raw.replace(line.encode(), corrupt.encode()))
    with pytest.raises(CheckpointError, match="header line"):
        ckpt.load_arrays(path)


def test_params_round_trip(tmp_path, tiny_model_config):
    params = M.init(tiny_model_config, seed=3)
    path = tmp_path / "params.ckpt"
    ckpt.save_params(path, params)
    loaded, meta = ckpt.load_params(path)
    assert set(meta) == {"config"}
    assert loaded.config == tiny_model_config
    for name in params.tensors:
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
    ckpt.save_arrays(path, arrays, {"config": asdict(tiny_model_config)})
    with pytest.raises(CheckpointError):
        ckpt.load_params(path)


def test_tensor_of_another_shape_than_the_config_rejected(tmp_path, tiny_model_config):
    params = M.init(tiny_model_config, seed=0)
    path = tmp_path / "bad.ckpt"
    arrays = {k: v.data for k, v in params.tensors.items()}
    arrays["embed"] = np.zeros((tiny_model_config.vocab_size + 20, tiny_model_config.d_model))
    ckpt.save_arrays(path, arrays, {"config": asdict(tiny_model_config)})
    with pytest.raises(CheckpointError, match="embed"):
        ckpt.load_params(path)


def _with_key_biases(params, rng):
    # the arrays of a model file written while attention had a key bias
    arrays = {k: v.data for k, v in params.tensors.items()}
    for name in list(arrays):
        if name.endswith(".wk"):
            arrays[name[:-2] + "bk"] = rng.standard_normal(arrays[name].shape[1])
    return arrays


def test_key_biases_of_earlier_versions_dropped(tmp_path, tiny_model_config):
    params = M.init(tiny_model_config, seed=0)
    arrays = _with_key_biases(params, np.random.default_rng(1))
    assert len(arrays) == len(params.tensors) + 3  # enc attn, dec self and cross attn
    path = tmp_path / "old.ckpt"
    ckpt.save_arrays(path, arrays, {"config": asdict(tiny_model_config)})
    loaded, _ = ckpt.load_params(path)
    assert list(loaded.tensors) == list(params.tensors)
    for name, tensor in loaded.tensors.items():
        assert tensor.data.tobytes() == params[name].data.tobytes(), name


@pytest.mark.parametrize("surplus", ["enc0.ffn.bk", "enc1.attn.bk", "dec0.attn.bk",
                                     "enc0.attn.bz", "bk", "extra"])
def test_other_surplus_names_still_refused(tmp_path, tiny_model_config, surplus):
    params = M.init(tiny_model_config, seed=0)
    arrays = _with_key_biases(params, np.random.default_rng(1))
    arrays[surplus] = np.zeros(tiny_model_config.d_model)
    path = tmp_path / "bad.ckpt"
    ckpt.save_arrays(path, arrays, {"config": asdict(tiny_model_config)})
    with pytest.raises(CheckpointError, match=f"surplus \\['{surplus}'\\]"):
        ckpt.load_params(path)


# Configs written before the model had one layout hold these keys.
RETIRED = {"tie_embeddings": True, "activation": "gelu", "label_smoothing": 0.0,
           "layer_norm_eps": 1e-05, "pad_id": 0, "eos_id": 1}
BASE_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "base_model" / "params.ckpt"


def test_stored_benchmark_model_loads():
    # read only: the benchmark's model file carries every retired key
    _, meta = ckpt.load_arrays(BASE_MODEL)
    assert RETIRED.items() <= meta["config"].items()
    params, _ = ckpt.load_params(BASE_MODEL)
    assert params.config == M.ModelConfig(
        vocab_size=427, d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2,
        d_ff=128, max_positions=24, dropout=0.1,
    )
    # and the key bias of each of its six attention blocks, which is dropped
    arrays, _ = ckpt.load_arrays(BASE_MODEL)
    dropped = set(arrays) - set(params.tensors)
    assert len(dropped) == 6 and all(k.endswith("attn.bk") for k in dropped)
    assert sum(arrays[k].size for k in dropped) == 384
    batch = M.make_batch([[3, 300, 1]], [[301, 1]], M.ModelConfig.pad_id)
    assert np.isfinite(M.loss_teacher_forcing(params, batch).item())


def test_retired_keys_at_their_one_value_load(tmp_path, tiny_model_config):
    params = M.init(tiny_model_config, seed=0)
    path = tmp_path / "old.ckpt"
    arrays = {k: v.data for k, v in params.tensors.items()}
    ckpt.save_arrays(path, arrays, {"config": {**asdict(tiny_model_config), **RETIRED}})
    loaded, _ = ckpt.load_params(path)
    assert loaded.config == tiny_model_config


@pytest.mark.parametrize(
    "key, value", [("activation", "relu"), ("tie_embeddings", False), ("unknown_key", 1)]
)
def test_unsupported_saved_config_refused(tmp_path, tiny_model_config, key, value):
    params = M.init(tiny_model_config, seed=0)
    path = tmp_path / "other.ckpt"
    arrays = {k: v.data for k, v in params.tensors.items()}
    ckpt.save_arrays(path, arrays, {"config": {**asdict(tiny_model_config), key: value}})
    with pytest.raises(CheckpointError, match=key):
        ckpt.load_params(path)
