"""Entry point: ``python3 benchmarks/ledger`` (the BENCHMARK.json command,
run from the repository root) or ``python -m benchmarks.ledger``."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.ledger: no program to measure under {ROOT / 'src'}")
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
# Before numpy is imported, and inherited by every child: the kernel makes no
# BLAS call, but OpenBLAS starting its thread pool adds 70 ms to a 180 ms
# set-up on some runs and not on others (where the second thread lands).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# The campaign runner passes result files through ``tempfile``: keep them
# inside the checkout, on the filesystem the journal and cache are on.
TMP = Path(__file__).resolve().parent / ".work" / "tmp"
TMP.mkdir(parents=True, exist_ok=True)
os.environ["TMPDIR"] = str(TMP)

from benchmarks.ledger.cli import main  # noqa: E402 — needs the path above

sys.exit(main())
