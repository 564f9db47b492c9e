"""Executed-bytecode counting for deterministic cost tests.

While a trace function is set, CPython reports every instruction of
every frame it enters, so the count is the same on every run of the
same code.  It depends on the CPython minor version, so budgets stated
in it hold for one version only.
"""

import sys


def count_opcodes(fn, *args):
    """Call ``fn(*args)``; return the bytecode instructions it executed."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count
