"""Call recorder the consumer audit installs as ``sitecustomize``.

The audit copies this file into a fresh directory as ``sitecustomize.py``
and puts that directory first on ``PYTHONPATH``, so every interpreter an
entry point starts (and every worker it forks) records each code object
it enters through ``sys.setprofile``.  At exit the ``repro`` code objects
are written as ``[filename, first line, name]`` rows to one JSON file per
process under ``calls/`` next to this file.  Forked workers leave through
``os._exit``, which skips ``atexit``, so that exit flushes too.
"""

import atexit
import json
import os
import sys
import tempfile
import threading

_CALLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calls")
# Keyed by identity: code objects compare equal across files when their
# name, first line and bytecode match, so a set would merge two modules'
# identical functions (two ``capacity`` properties on the same line) and
# record only one of them.
_SEEN = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _SEEN[id(code)] = code


def _flush():
    sys.setprofile(None)
    rows = sorted(
        {
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in _SEEN.values()
            if "repro" in code.co_filename
        }
    )
    os.makedirs(_CALLS, exist_ok=True)
    handle, _ = tempfile.mkstemp(suffix=".json", dir=_CALLS)
    with os.fdopen(handle, "w") as out:
        json.dump(rows, out)


def _exit(status, _real_exit=os._exit):
    _flush()
    _real_exit(status)


os._exit = _exit
atexit.register(_flush)
threading.setprofile(_profile)
sys.setprofile(_profile)
