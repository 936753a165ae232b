import json
import os
import struct

import pytest

# Pin BLAS to one thread before any test module imports numpy: two OpenBLAS
# threads at times stall small matrix products on a two-core machine. A
# value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
