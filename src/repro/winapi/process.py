"""Simulated processes and the system that owns them.

A :class:`Process` exposes exactly what the paper's runtime monitor
reads: a ``PROCESS_MEMORY_COUNTERS_EX``-shaped snapshot, the loaded
module list (DLL injection lands here), and lifecycle state (the failed
control-flow hijacks in §V-C2 *crash* the reader — the monitor sees
that too).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.winapi.clock import VirtualClock

#: Baseline private usage of an empty PDF reader process (bytes).
READER_BASE_MEMORY = 18 * 1024 * 1024


class ProcessState(enum.Enum):
    RUNNING = "running"
    EXITED = "exited"
    CRASHED = "crashed"
    TERMINATED = "terminated"  # killed by confinement


@dataclass
class MemoryCounters:
    """Mirror of the fields the paper reads from
    ``PROCESS_MEMORY_COUNTERS_EX`` [34]."""

    working_set_size: int
    peak_working_set_size: int
    private_usage: int
    pagefile_usage: int

    @property
    def private_usage_mb(self) -> float:
        return self.private_usage / (1024 * 1024)


class Process:
    """One simulated Windows process."""

    def __init__(
        self,
        pid: int,
        name: str,
        system: "System",
        parent_pid: Optional[int] = None,
        base_memory: int = 4 * 1024 * 1024,
        sandboxed: bool = False,
    ) -> None:
        self.pid = pid
        self.name = name
        self.system = system
        self.parent_pid = parent_pid
        self.base_memory = base_memory
        self.sandboxed = sandboxed
        self.state = ProcessState.RUNNING
        #: ``state is ProcessState.RUNNING``, kept by :meth:`_end` (the
        #: only writer of ``state``) as a plain attribute, which every JS
        #: string's memory charge reads.
        self.alive = True
        self.exit_reason: Optional[str] = None
        self.modules: List[str] = [name, "ntdll.dll", "kernel32.dll"]
        self.command_line: str = name
        self._allocations: Dict[str, int] = {}
        #: Sum of ``_allocations``, kept by every method that changes a
        #: bucket, so a JS string's charge does not re-sum the buckets.
        self._allocated = 0
        self._peak = base_memory

    # -- memory -----------------------------------------------------------

    def alloc(self, tag: str, nbytes: int) -> None:
        """Charge ``nbytes`` to allocation bucket ``tag``."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        allocations = self._allocations
        allocations[tag] = allocations.get(tag, 0) + nbytes
        self._allocated += nbytes
        private = self.base_memory + self._allocated
        if private > self._peak:
            self._peak = private

    def free(self, tag: str) -> int:
        """Release a whole bucket (e.g. a closed document's heap)."""
        nbytes = self._allocations.pop(tag, 0)
        self._allocated -= nbytes
        return nbytes

    def set_bucket(self, tag: str, nbytes: int) -> None:
        nbytes = max(0, nbytes)
        self._allocated += nbytes - self._allocations.get(tag, 0)
        self._allocations[tag] = nbytes
        self._peak = max(self._peak, self.private_bytes)

    @property
    def private_bytes(self) -> int:
        return self.base_memory + self._allocated

    def memory_counters(self) -> MemoryCounters:
        private = self.private_bytes
        return MemoryCounters(
            working_set_size=private,
            peak_working_set_size=self._peak,
            private_usage=private,
            pagefile_usage=private,
        )

    # -- modules / lifecycle --------------------------------------------------

    def load_module(self, dll_name: str) -> None:
        if dll_name not in self.modules:
            self.modules.append(dll_name)

    def has_module(self, dll_name: str) -> bool:
        return dll_name in self.modules

    def crash(self, reason: str) -> None:
        self._end(ProcessState.CRASHED, reason)

    def exit(self, reason: str = "normal exit") -> None:
        self._end(ProcessState.EXITED, reason)

    def terminate(self, reason: str) -> None:
        self._end(ProcessState.TERMINATED, reason)

    def _end(self, state: ProcessState, reason: str) -> None:
        """Leave ``RUNNING`` for ``state``; an ended process stays as it is."""
        if self.alive:
            self.state = state
            self.alive = False
            self.exit_reason = reason

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, {self.name!r}, {self.state.value})"


@dataclass
class SystemConfig:
    """Tunables for the simulated machine."""

    reader_process_name: str = "AcroRd32.exe"
    whitelisted_programs: tuple = (
        "WerFault.exe",          # Windows error reporting
        "AdobeARM.exe",          # updater shipped with the reader
        "AcroBroker.exe",        # broker tool shipped with the reader
    )


class System:
    """The simulated machine: processes + clock + peripherals."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        from repro.winapi.filesystem import FileSystem
        from repro.winapi.network import Network

        self.config = config if config is not None else SystemConfig()
        self.clock = VirtualClock()
        self.filesystem = FileSystem()
        self.network = Network()
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1000

    def spawn(
        self,
        name: str,
        parent: Optional[Process] = None,
        base_memory: int = 4 * 1024 * 1024,
        sandboxed: bool = False,
    ) -> Process:
        pid = self._next_pid
        self._next_pid += 4
        process = Process(
            pid=pid,
            name=name,
            system=self,
            parent_pid=parent.pid if parent else None,
            base_memory=base_memory,
            sandboxed=sandboxed,
        )
        self.processes[pid] = process
        return process

    def spawn_reader(self) -> Process:
        return self.spawn(self.config.reader_process_name, base_memory=READER_BASE_MEMORY)

    def get(self, pid: int) -> Optional[Process]:
        return self.processes.get(pid)

    def is_whitelisted_program(self, name: str) -> bool:
        return name in self.config.whitelisted_programs

    def running(self) -> List[Process]:
        return [p for p in self.processes.values() if p.alive]
