"""Flat binary checkpoint of named float32 arrays.

Layout, in order:

    PSNCKPT v1\n
    count <n>\n
    <name> <d0,d1,...> <byte_offset> <byte_length>\n   (one line per array)
    end\n
    <payload>

The header is ASCII. Array names must be non-empty and contain no
whitespace. Shapes are comma-joined dims; a 0-d array writes ``-``. Offsets
are relative to the first payload byte. The payload is each array's raw
little-endian float32 bytes at its stated offset, in header order, packed
without gaps.

Round trips are bit-exact: load(save(x)) compares equal byte for byte,
which the tests check on awkward values (negative zero, denormals, inf).
Only float32 is accepted; this is a training checkpoint, not a general
serialization format.

Writes go through a temp file in the same directory plus one rename, so a
crash never leaves a half-written checkpoint at the target path.
"""

from __future__ import annotations

import numpy as np

from .atomic import write_atomic
from .errors import ContractError, ParseError

_MAGIC = b"PSNCKPT v1\n"


def save_checkpoint(path, arrays):
    """Write ``arrays`` (dict name -> ndarray, float32) atomically to ``path``."""
    entries = []
    offset = 0
    for name, arr in arrays.items():
        if not name or any(ch.isspace() for ch in name):
            raise ContractError(f"bad checkpoint entry name {name!r}")
        # ascontiguousarray promotes 0-d to 1-d; put the shape back so
        # scalar entries (sliding thresholds) round-trip as 0-d.
        a = np.ascontiguousarray(arr).reshape(np.shape(arr))
        if a.dtype != np.float32:
            raise ContractError(
                f"checkpoint entry {name!r} must be float32, got {a.dtype}")
        entries.append((name, a, offset))
        offset += a.nbytes

    header = [_MAGIC, f"count {len(entries)}\n".encode()]
    for name, a, off in entries:
        shape = ",".join(str(d) for d in a.shape) if a.ndim else "-"
        header.append(f"{name} {shape} {off} {a.nbytes}\n".encode())
    header.append(b"end\n")

    payload = [a.astype("<f4", copy=False).tobytes() for _, a, _ in entries]
    write_atomic(path, b"".join(header + payload))


def load_checkpoint(path):
    """Read a checkpoint back as dict name -> float32 ndarray (header order)."""
    with open(path, "rb") as f:
        blob = f.read()

    if not blob.startswith(_MAGIC):
        raise ParseError("not a checkpoint: bad magic", offset=0)
    pos = len(_MAGIC)

    def read_line():
        nonlocal pos
        end = blob.find(b"\n", pos)
        if end < 0:
            raise ParseError("truncated header", offset=pos)
        line = blob[pos:end]
        pos = end + 1
        return line

    count_line = read_line()
    parts = count_line.split()
    if len(parts) != 2 or parts[0] != b"count":
        raise ParseError(f"expected 'count <n>', got {count_line!r}",
                         offset=pos - len(count_line) - 1)
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(f"bad entry count {parts[1]!r}", offset=pos) from None
    if count < 0:
        raise ParseError(f"bad entry count {count}", offset=pos)

    entries = []
    names = set()
    packed = 0  # where the next entry must start: header order, no gaps
    for _ in range(count):
        line_start = pos
        fields = read_line().split()
        if len(fields) != 4:
            raise ParseError("malformed header entry", offset=line_start)
        name = fields[0].decode("ascii", errors="replace")
        try:
            shape_s = fields[1].decode("ascii")
            shape = () if shape_s == "-" else tuple(
                int(d) for d in shape_s.split(","))
            off = int(fields[2])
            length = int(fields[3])
        except ValueError:
            raise ParseError("malformed header entry",
                             offset=line_start) from None
        if any(d < 0 for d in shape) or length < 0:
            raise ParseError(f"entry {name!r}: negative dim or length",
                             offset=line_start)
        if name in names:
            raise ParseError(f"duplicate entry {name!r}", offset=line_start)
        if off != packed:
            raise ParseError(
                f"entry {name!r}: offset {off}, expected {packed} "
                f"(payloads are packed in header order)", offset=line_start)
        names.add(name)
        packed += length
        entries.append((name, shape, off, length))

    terminator = read_line()
    if terminator != b"end":
        raise ParseError(f"expected 'end', got {terminator!r}",
                         offset=pos - len(terminator) - 1)

    payload_start = pos
    out = {}
    for name, shape, off, length in entries:
        n_elem = int(np.prod(shape)) if shape else 1
        if length != n_elem * 4:
            raise ParseError(
                f"entry {name!r}: length {length} disagrees with shape {shape}",
                offset=payload_start + off)
        start = payload_start + off
        stop = start + length
        if stop > len(blob):
            raise ParseError(f"entry {name!r}: payload truncated",
                             offset=len(blob))
        arr = np.frombuffer(blob[start:stop], dtype="<f4").reshape(shape)
        out[name] = arr.astype(np.float32, copy=True)
    return out
