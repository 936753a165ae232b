import json
import struct

import pytest


@pytest.fixture
def reheader():
    """Rewrite a framed container (FCLZ or FCAE) with its JSON header
    replaced by mutate(header); the frame length follows the new header."""

    def rewrite(raw: bytes, mutate) -> bytes:
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = mutate(json.loads(raw[12 : 12 + header_len]))
        body = json.dumps(header).encode("utf-8")
        return raw[:8] + struct.pack("<I", len(body)) + body + raw[12 + header_len :]

    return rewrite
