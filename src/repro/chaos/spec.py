"""ChaosSpec: a seeded, one-shot plan of worker-level harness faults.

The sweep runner calls :meth:`ChaosSpec.on_point_start` at the top of
every point attempt (both in-process and inside pool workers — the
spec is a frozen dataclass of plain values, so it pickles cleanly).
When the attempt matches a planned fault and that fault has not fired
yet, the process kills or hangs itself *right there* — before any
result can reach the checkpoint — which is the worst case for the
supervision layer.

One-shot semantics are what make recovery provable: each fault records
its firing as a marker file in ``state_dir`` **before** acting, so the
retried/resumed attempt runs clean. A killed-and-resumed sweep must
therefore produce results byte-identical to a never-killed one
(per-point seeds are pure functions of the grid key; see
``repro.experiments.runner.point_seed``).
A fault names its point by grid key, e.g. ``(algorithm, mpl)``.
"""

import os
import re
import signal
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ChaosSpec"]


@dataclass(frozen=True)
class ChaosSpec:
    """A plan of harness-level faults for one sweep.

    ``state_dir`` holds the one-shot marker files (created on demand);
    ``kill_point`` is the grid key of the point whose first attempt
    SIGKILLs its process; ``hang_point`` is the key of the point whose
    first attempt sleeps ``hang_seconds`` — long enough to outlive any
    in-worker deadline, so only the parent backstop can end it.
    """

    state_dir: str
    kill_point: Optional[Tuple] = None
    hang_point: Optional[Tuple] = None
    hang_seconds: float = 3600.0

    def marker_path(self, action, key):
        """The marker file recording one fault's firing at ``key``."""
        name = re.sub(r"[^\w.=@-]+", "_", "@".join(map(str, key)))
        return os.path.join(self.state_dir, f"chaos.{action}.{name}")

    def _arm(self, action, key):
        """True exactly once per fault: creates the marker atomically.

        ``O_EXCL`` makes creation the test-and-set, so even two racing
        workers cannot both fire the same fault. The marker must exist
        *before* the fault acts — a SIGKILL cannot be followed by
        bookkeeping.
        """
        os.makedirs(self.state_dir, exist_ok=True)
        try:
            fd = os.open(
                self.marker_path(action, key),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def on_point_start(self, key):
        """Fire any planned fault for grid point ``key`` (first time only)."""
        if self.kill_point == key and self._arm("kill", key):
            # SIGKILL, not sys.exit: no cleanup, no flushing, no
            # executor goodbye — the hardest death available.
            os.kill(os.getpid(), signal.SIGKILL)
        if self.hang_point == key and self._arm("hang", key):
            time.sleep(self.hang_seconds)

    def describe(self):
        """Stable one-line signature (diagnostics, progress lines)."""
        parts = []
        if self.kill_point is not None:
            parts.append("kill=" + "@".join(map(str, self.kill_point)))
        if self.hang_point is not None:
            parts.append(
                "hang=" + "@".join(map(str, self.hang_point))
                + f"x{self.hang_seconds:g}s"
            )
        return "chaos(" + ", ".join(parts or ["null"]) + ")"
