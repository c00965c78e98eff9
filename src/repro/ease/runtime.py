"""The C runtime provided to interpreted programs.

These are the "library routines" of the paper, which EASE could not
measure ("Library routines could not be measured since the source code was
not available to be compiled by VPO"); we reproduce that by executing them
natively, outside the instruction counts.

Supported: getchar, putchar, puts, printf (a practical subset: %d %u %c
%s %o %x %% with optional '-', '0' flags and width), malloc (bump
allocator), strlen, strcmp, strcpy, atoi, abs, memset, exit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from .interp import MachineState

__all__ = ["call_builtin", "ProgramExit", "is_builtin"]


class ProgramExit(Exception):
    """Raised by exit() and by falling off main."""

    def __init__(self, code: int) -> None:
        self.code = code
        super().__init__(f"program exited with code {code}")


_BUILTIN_NAMES = frozenset(
    {
        "getchar",
        "putchar",
        "puts",
        "printf",
        "malloc",
        "strlen",
        "strcmp",
        "strcpy",
        "atoi",
        "abs",
        "memset",
        "exit",
    }
)


def is_builtin(name: str) -> bool:
    """True when ``name`` is a runtime (library) routine."""
    return name in _BUILTIN_NAMES


def _read_cstring(state: "MachineState", addr: int) -> bytes:
    """The NUL-terminated string at ``addr``; a string that starts or
    runs outside memory raises ``IndexError`` (Python would index a
    negative address from the end)."""
    mem = state.mem
    end = mem.find(0, addr) if 0 <= addr < len(mem) else -1
    if end < 0:
        raise IndexError(f"string at {addr} leaves memory")
    return bytes(mem[addr:end])


def _end(state: "MachineState", addr: int, size: int) -> int:
    """``addr + size``, once ``[addr, addr + size)`` is checked to lie in
    memory: a range leaving it raises ``IndexError`` (slice assignment
    would resize the memory instead)."""
    end = addr + size
    if addr < 0 or end > len(state.mem):
        raise IndexError(f"store of {size} bytes at {addr} leaves memory")
    return end


def _format_printf(state: "MachineState", fmt: bytes, args: List[int]) -> bytes:
    out = bytearray()
    arg_index = 0
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != ord("%"):
            out.append(ch)
            i += 1
            continue
        i += 1
        if i < n and fmt[i] == ord("%"):
            out.append(ord("%"))
            i += 1
            continue
        # Flags.
        left = False
        zero = False
        while i < n and fmt[i] in (ord("-"), ord("0")):
            if fmt[i] == ord("-"):
                left = True
            else:
                zero = True
            i += 1
        # Width.
        width = 0
        while i < n and ord("0") <= fmt[i] <= ord("9"):
            width = width * 10 + (fmt[i] - ord("0"))
            i += 1
        if i >= n:
            break
        conv = chr(fmt[i])
        i += 1
        if conv == "l" and i < n:
            conv = chr(fmt[i])
            i += 1
        if conv in ("d", "u"):
            value = args[arg_index]
            arg_index += 1
            if conv == "u":
                value &= 0xFFFFFFFF
            text = str(value)
        elif conv == "c":
            value = args[arg_index]
            arg_index += 1
            text = chr(value & 0xFF)
        elif conv == "s":
            addr = args[arg_index]
            arg_index += 1
            text = _read_cstring(state, addr).decode("latin-1")
        elif conv == "o":
            value = args[arg_index] & 0xFFFFFFFF
            arg_index += 1
            text = format(value, "o")
        elif conv == "x":
            value = args[arg_index] & 0xFFFFFFFF
            arg_index += 1
            text = format(value, "x")
        else:
            text = "%" + conv
        if width > len(text):
            pad = "0" if (zero and not left and conv != "s") else " "
            if left:
                text = text + " " * (width - len(text))
            else:
                if pad == "0" and text.startswith("-"):
                    text = "-" + text[1:].rjust(width - 1, "0")
                else:
                    text = text.rjust(width, pad)
        out.extend(text.encode("latin-1"))
    return bytes(out)


def call_builtin(state: "MachineState", name: str, nargs: int) -> int:
    """Execute runtime routine ``name``; return its (int) result."""
    args = [state.regs["arg"][i] for i in range(nargs)]
    if name == "getchar":
        if state.stdin_pos >= len(state.stdin):
            return -1
        ch = state.stdin[state.stdin_pos]
        state.stdin_pos += 1
        return ch
    if name == "putchar":
        state.stdout.append(args[0] & 0xFF)
        return args[0] & 0xFF
    if name == "puts":
        state.stdout.extend(_read_cstring(state, args[0]))
        state.stdout.append(ord("\n"))
        return 0
    if name == "printf":
        fmt = _read_cstring(state, args[0])
        rendered = _format_printf(state, fmt, args[1:])
        state.stdout.extend(rendered)
        return len(rendered)
    if name == "malloc":
        size = max(0, args[0])
        addr = (state.heap_ptr + 3) & ~3
        state.heap_ptr = addr + size
        if state.heap_ptr >= state.stack_limit:
            raise MemoryError("interpreted heap exhausted")
        return addr
    if name == "strlen":
        return len(_read_cstring(state, args[0]))
    if name == "strcmp":
        a = _read_cstring(state, args[0])
        b = _read_cstring(state, args[1])
        if a < b:
            return -1
        if a > b:
            return 1
        return 0
    if name == "strcpy":
        dst, data = args[0], _read_cstring(state, args[1]) + b"\0"
        state.mem[dst : _end(state, dst, len(data))] = data
        return dst
    if name == "atoi":
        text = _read_cstring(state, args[0]).decode("latin-1").strip()
        sign = 1
        if text[:1] in ("-", "+"):
            if text[0] == "-":
                sign = -1
            text = text[1:]
        digits = ""
        for ch in text:
            if not ch.isdigit():
                break
            digits += ch
        return sign * int(digits) if digits else 0
    if name == "abs":
        return -args[0] if args[0] < 0 else args[0]
    if name == "memset":
        # ``size`` is C's unsigned 32-bit size_t; the range is checked
        # before the fill is built.
        addr, value, size = args[0], args[1] & 0xFF, args[2] & 0xFFFFFFFF
        end = _end(state, addr, size)
        state.mem[addr:end] = bytes([value]) * size
        return addr
    if name == "exit":
        raise ProgramExit(args[0] if args else 0)
    raise NameError(f"unknown builtin {name!r}")
