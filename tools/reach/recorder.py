"""Call-event recorder: which functions under a source root ran.

Loaded at interpreter start-up (``run.py`` installs it as the
``usercustomize`` module of a private user base), it hooks
``sys.settrace`` and ``threading.settrace`` with a global trace
function that returns ``None``, so only ``call`` events fire: one per
frame entered, never per line.  It keeps the code objects it saw and, at
exit, writes one line per code object whose file lies under
``REACH_ROOT``: ``path<TAB>first line<TAB>name`` into a file of its own
under ``REACH_OUT`` (one file per process, so subprocesses record too).

Without ``REACH_OUT`` and ``REACH_ROOT`` in the environment it does
nothing.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading


def install() -> None:
    out_dir = os.environ.get("REACH_OUT")
    root = os.environ.get("REACH_ROOT")
    if not out_dir or not root:
        return
    root = os.path.abspath(root) + os.sep
    seen: set = set()
    add = seen.add

    def on_call(frame, event, arg):
        add(frame.f_code)

    def dump() -> None:
        sys.settrace(None)
        lines = set()
        for code in seen:
            path = os.path.abspath(code.co_filename)
            if path.startswith(root):
                lines.add(f"{path[len(root):]}\t{code.co_firstlineno}\t{code.co_name}\n")
        target = os.path.join(out_dir, f"calls-{os.getpid()}.tsv")
        with open(target, "w") as out:
            out.writelines(sorted(lines))

    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)
