"""The LEVYSYM_THREADS setting, read with the standard library only so the
package can apply it before numpy starts its BLAS pools."""

import os


def thread_setting():
    """LEVYSYM_THREADS as a positive int, or None when it is unset or blank.

    Raises ValueError unless the stripped value is all ASCII digits and at
    least 1.
    """
    raw = os.environ.get("LEVYSYM_THREADS", "").strip()
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"LEVYSYM_THREADS must be a positive integer, got {raw!r}")
    return int(raw)
