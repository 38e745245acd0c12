"""Trap (system-call) interface between simulated programs and the host.

The paper's ISAs include a ``trap`` instruction; we define a minimal
vector sufficient for the benchmark suite's I/O and memory needs:

====  =========  ==========================================
code  name       behaviour
====  =========  ==========================================
0     EXIT       halt; exit status in r2 (masked to a byte)
1     PUTC       write the low byte of r2 to stdout
2     GETC       read one byte from stdin into r2 (-1 = EOF)
3     SBRK       grow the heap by r2 bytes; old break in r2
====  =========  ==========================================

The handler is deliberately fail-soft: GETC at EOF keeps returning -1
forever, SBRK past the heap limit returns -1 without moving the break,
and SBRK with a negative argument can shrink the heap but never move
the break below ``heap_base`` (a corrupted argument must not hand the
program the data segment as "heap").  Only an *undefined* trap code is
an error — :class:`TrapError` with the offending code and pc — because
it indicates a corrupt or miscompiled image, not a program decision.
"""

from __future__ import annotations

TRAP_EXIT = 0
TRAP_PUTC = 1
TRAP_GETC = 2
TRAP_SBRK = 3


class TrapError(Exception):
    """Raised for undefined trap codes."""

    def __init__(self, code: int, pc: int | None = None):
        self.code = code
        self.pc = pc
        where = f" at pc={pc:#x}" if pc is not None else ""
        super().__init__(f"undefined trap code {code}{where}")

    def __reduce__(self):
        return (TrapError, (self.code, self.pc))


class TrapHandler:
    """Host-side implementation of the trap vector."""

    def __init__(self, *, stdin: bytes = b"", heap_base: int = 0,
                 heap_limit: int = 0):
        self.stdout = bytearray()
        self.stdin = stdin
        self.stdin_pos = 0
        self.heap_base = heap_base
        self.brk = heap_base
        self.heap_limit = heap_limit
        self.exited = False
        self.exit_code = 0
        #: Last trap code handled (watchdog/timeout diagnostics).
        self.last_trap: int | None = None

    def handle(self, code: int, arg: int, pc: int | None = None,
               ) -> int | None:
        """Execute trap ``code``; returns the new r2 value or None.

        ``pc`` is the address of the trap instruction, used only to
        make :class:`TrapError` messages actionable.
        """
        self.last_trap = code
        if code == TRAP_EXIT:
            self.exited = True
            self.exit_code = arg & 0xFF
            return None
        if code == TRAP_PUTC:
            self.stdout.append(arg & 0xFF)
            return None
        if code == TRAP_GETC:
            if self.stdin_pos >= len(self.stdin):
                return 0xFFFFFFFF  # -1: EOF (repeatable)
            byte = self.stdin[self.stdin_pos]
            self.stdin_pos += 1
            return byte
        if code == TRAP_SBRK:
            old = self.brk
            if arg >= 0x8000_0000:        # raw 32-bit register value
                arg -= 0x1_0000_0000      # interpret as signed (shrink)
            new = old + arg
            if new < self.heap_base:
                new = self.heap_base  # clamp: never release below the heap
            if self.heap_limit and new > self.heap_limit:
                return 0xFFFFFFFF  # -1: out of memory
            self.brk = new
            return old
        raise TrapError(code, pc)

    @property
    def output_text(self) -> str:
        return self.stdout.decode("latin-1")
