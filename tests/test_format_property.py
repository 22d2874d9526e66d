"""Property tests of the on-disk formats: every mistyped .gvol header field
raises FormatError naming the file and the field, and a truncated or
byte-flipped checkpoint, header or payload, is always rejected with
VersionMismatch naming the file."""

import json
import math
import re
import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gasaunet.backbone import build_model, make_backbone_config
from gasaunet.errors import FormatError, VersionMismatch
from gasaunet.tensor import Rng
from gasaunet.training import (
    CKPT_MAGIC,
    checkpoint_from_model,
    eval_fingerprint,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from gasaunet.volume import Volume, read_volume, write_volume

FIXTURE_OK = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _three_finite(v) -> bool:
    return type(v) is list and len(v) == 3 and all(type(x) in (int, float) and math.isfinite(x) for x in v)


# what each header field accepts, written from the format's description
VALID = {
    "dtype": lambda v: v in ("f32", "f64", "u16"),
    "shape": lambda v: type(v) is list and all(type(s) is int and s >= 0 for s in v),
    "spacing": lambda v: _three_finite(v) and min(v) > 0,
    "origin": _three_finite,
    "kind": lambda v: v in ("image", "labels"),
}


@FIXTURE_OK
@given(field=st.sampled_from(sorted(VALID)), value=JSON)
def test_mistyped_gvol_header_field_raises_format_error(tmp_path, field, value):
    assume(not VALID[field](value))
    path = tmp_path / "case.gvol"
    write_volume(Volume(np.zeros((1, 2, 2, 2)), spacing=(1.0, 1.0, 2.0), kind="image"), path)
    header_path = tmp_path / "case.gvol.json"
    header = json.loads(header_path.read_text())
    header[field] = value
    header_path.write_text(json.dumps(header))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: header field '{field}'"):
        read_volume(path)


@FIXTURE_OK
@given(header=JSON)
def test_gvol_header_that_is_no_object_raises_format_error(tmp_path, header):
    assume(type(header) is not dict)
    path = tmp_path / "case.gvol"
    write_volume(Volume(np.zeros((1, 2, 2, 2)), spacing=(1.0, 1.0, 1.0), kind="image"), path)
    (tmp_path / "case.gvol.json").write_text(json.dumps(header))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read_volume(path)


@lru_cache(maxsize=1)
def checkpoint_bytes(tmp_dir) -> bytes:
    cfg = make_backbone_config(1, 2, (4, 4, 4), stage_channels=(2, 3), d_model=2, heads=1)
    model = build_model(cfg, Rng(3))
    momentum = {name: Rng(4).normal_array(p.size).reshape(p.shape) for name, p in model.named_params()}
    extra = {"patch_size": [4, 4, 4], "stats": {"p_lo": 0.0, "p_hi": 1.0, "mean": 0.5, "std": 0.2},
             "spacing": [1.0, 1.0, 1.0], "num_classes": 2}
    path = tmp_dir / "model.ckpt"
    save_checkpoint(checkpoint_from_model(model, momentum, 3, Rng(5), extra), path)
    return path.read_bytes()


@FIXTURE_OK
@given(data=st.data())
def test_truncated_checkpoint_raises_version_mismatch(tmp_path_factory, tmp_path, data):
    raw = checkpoint_bytes(tmp_path_factory.getbasetemp())
    path = tmp_path / "cut.ckpt"
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(VersionMismatch, match=re.escape(str(path))):
        load_checkpoint(path)


@FIXTURE_OK
@given(data=st.data())
def test_byte_flipped_checkpoint_raises_version_mismatch_or_loads(tmp_path_factory, tmp_path, data):
    """A flip in the magic, the version, the header length or its CRC-32 is
    rejected, and the header's CRC-32 catches every flip in the header,
    including one that leaves a valid file, such as a digit of the epoch.
    No flip loads, and none raises any other exception."""
    raw = bytearray(checkpoint_bytes(tmp_path_factory.getbasetemp()))
    at = data.draw(st.integers(0, len(raw) - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch, match=re.escape(str(path))):
        ckpt = load_checkpoint(path)
        model_from_checkpoint(ckpt)
        eval_fingerprint(ckpt, path)


@FIXTURE_OK
@given(data=st.data())
def test_payload_byte_flip_raises_version_mismatch(tmp_path_factory, tmp_path, data):
    """The header's CRC-32 of the payload catches every single-byte flip
    there, including one that leaves a finite float64."""
    raw = bytearray(checkpoint_bytes(tmp_path_factory.getbasetemp()))
    _, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
    at = data.draw(st.integers(len(CKPT_MAGIC) + 16 + hlen, len(raw) - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch, match=re.escape(str(path))):
        load_checkpoint(path)
