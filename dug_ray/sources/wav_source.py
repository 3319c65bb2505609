"""WAV/PCM16 audio codec — a REAL binary media path with zero libraries.

The multimodal family (stages/multimodal.py) carries images as real PPM
P6 payloads; this module is the audio sibling: a deterministic renderer
that packs each user's event-value stream into a canonical RIFF/WAVE
PCM16 file, and a strict parser that validates the container (RIFF
magic, WAVE form, fmt chunk fields, data length) and decodes samples
with ``np.frombuffer`` — the actor-pool decode shape a production
pipeline would use on real audio shards, exercised end to end without a
codec library.

Scale shape: rendering needs each user's samples in event order, so it
rides ONE user-keyed exchange (the scd2/sessionize bucket); parsing is a
pure map-side batch transform over the binary column (one numpy pass
per file, no Python per-sample loop).
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from dug_ray.shuffle import bucketed_group_apply, typed_table

SAMPLE_RATE = 8000
N_CHANNELS = 1
BITS = 16


def _wav_bytes(samples: np.ndarray) -> bytes:
    """Canonical 44-byte-header RIFF/WAVE PCM16 mono file."""
    data = samples.astype("<i2").tobytes()
    byte_rate = SAMPLE_RATE * N_CHANNELS * BITS // 8
    block_align = N_CHANNELS * BITS // 8
    hdr = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
           + b"fmt " + struct.pack("<IHHIIHH", 16, 1, N_CHANNELS,
                                   SAMPLE_RATE, byte_rate, block_align,
                                   BITS)
           + b"data" + struct.pack("<I", len(data)))
    return hdr + data


def decode_wav(payload: bytes) -> tuple[int, np.ndarray]:
    """Validate the RIFF container and return (sample_rate, samples).
    Raises ValueError on any malformed field — a corrupt shard must fail
    loudly, not decode garbage."""
    if len(payload) < 44 or payload[:4] != b"RIFF" or \
            payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    if payload[12:16] != b"fmt ":
        raise ValueError("missing fmt chunk")
    (fmt_len, audio_fmt, n_ch, rate, _br, _ba, bits) = struct.unpack(
        "<IHHIIHH", payload[16:36])
    if fmt_len != 16 or audio_fmt != 1 or bits != 16:
        raise ValueError("not PCM16")
    if payload[36:40] != b"data":
        raise ValueError("missing data chunk")
    (n_bytes,) = struct.unpack("<I", payload[40:44])
    if 44 + n_bytes != len(payload):
        raise ValueError("data length mismatch")
    samples = np.frombuffer(payload, dtype="<i2", offset=44,
                            count=n_bytes // 2)
    return rate, samples


def render_user_wavs(events: ray.data.Dataset,
                     num_buckets: int = 16) -> ray.data.Dataset:
    """One WAV file per user: samples = that user's event values as
    clipped integer centi-units in (ts, event_id) order.  Output:
    ``(user_id, wav: binary)``."""

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.assign(us=df["ts"].astype("datetime64[us]")
                       .astype("int64"))
        df = df.sort_values(["user_id", "us", "event_id"],
                            kind="mergesort")
        cents = np.clip(np.floor(df["value"].to_numpy() * 100),
                        -32768, 32767).astype("int16")
        # groupby.indices: positional int arrays into the sorted frame
        rows = [(int(uid), _wav_bytes(cents[idx]))
                for uid, idx in df.reset_index(drop=True)
                .groupby("user_id", sort=False).indices.items()] \
            if len(df) else []
        out = pd.DataFrame(rows, columns=["user_id", "wav"])
        return typed_table(out, user_id=pa.int64(), wav=pa.binary())

    return bucketed_group_apply(events, "user_id", per_bucket,
                                num_buckets)
