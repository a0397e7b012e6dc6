"""One closed-loop pass of a workload, in a fresh interpreter.

Usage: python child.py SPEC.json

The spec names the toolkit's source directory, the inputs to load once for
the set-up measurement, the subcommands to run and where to write the
result. ``mode`` is ``setup`` (import and load only), ``pass`` (run every
subcommand in order, each after the previous one returned) or ``trace``
(the same, with spans recorded from outside by ``spans.Tracer``).
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path


def _snapshot(out_dir: Path) -> dict[str, list]:
    """{relative path: [sha256, size]} of every file under ``out_dir``."""
    files = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files[path.relative_to(out_dir).as_posix()] = [hashlib.sha256(data).hexdigest(),
                                                       len(data)]
    return files


def _reset_peak_rss() -> None:
    """Start the peak-RSS count afresh (Linux), so it covers the subcommands
    and not the set-up load before them."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _run_command(main, argv: list[str]) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash in one subcommand fails it, not the pass
        traceback.print_exc()
        return 1


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import embrobust.cli
    from embrobust.dataset import load_dataset

    if not Path(embrobust.cli.__file__).resolve().is_relative_to(src):
        print(f"embrobust imported from {embrobust.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ds = load_dataset(spec["manifest"], spec["embeddings"])
    del ds
    result: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            from spans import Tracer
            tracer = Tracer(spec["run_id"])
            tracer.install()
        out_dir = Path(spec["out_dir"])
        # glibc only; elsewhere the heap is left as the subcommand left it
        malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        commands, seen = [], {}
        _reset_peak_rss()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, argv in spec["commands"]:
                span = tracer.open(f"command.{name}") if tracer else None
                t0 = time.perf_counter()
                rc = _run_command(embrobust.cli.main, argv)
                seconds = time.perf_counter() - t0
                if span is not None:
                    tracer.close(span)
                # hand freed heap back, as a fresh process per subcommand
                # would, so a subcommand's peak does not depend on how
                # fragmented the previous one left the heap
                gc.collect()
                if malloc_trim is not None:
                    malloc_trim(0)
                files = _snapshot(out_dir)
                # a file belongs to the subcommand that first wrote or changed it
                mine = {k: v for k, v in files.items() if seen.get(k) != v}
                seen.update(files)
                commands.append({"name": name, "rc": rc, "seconds": seconds, "files": mine})
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        result["commands"] = commands
        result["fallback_warnings"] = sum("uniform affinities" in str(w.message)
                                          for w in caught)
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
