"""The simulated machine: RAM + CPU + devices + boot protocol.

Mirrors the paper's experimental rig (Figure 3): build the machine,
configure which workload ``init`` runs (via ``/etc/workload``), boot,
optionally arm a debug-register breakpoint for the injector, run under a
host watchdog, and collect console output, crash dumps and the final
disk image for severity grading.
"""

import struct
from itertools import compress, count
from operator import ne

from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.devices import ConsoleDevice, DiskDevice, DumpDevice, \
    MachineShutdown, ShutdownDevice
from repro.cpu.memory import PAGE_SHIFT, PAGE_SIZE, MemoryBus, \
    PageTableBuilder
from repro.cpu.traps import TripleFault
from repro.kernel.layout import KernelLayout
from repro.machine.disk import LIBC_CONTENT, mkfs

DEFAULT_WATCHDOG = 30_000_000


class CrashRecord:
    """Parsed kernel crash dump (written by the kernel's crash handler).

    Word layout (see arch crash_dump): vector, error code, cr2, eip, cs,
    eflags, 8 pusha registers, tsc, pid, recovered flag (0 = the dump
    preceded a halt; 1 = oops-kill-continue; 2 = soft-lockup kill).
    """

    REG_NAMES = ("edi", "esi", "ebp", "esp", "ebx", "edx", "ecx", "eax")

    def __init__(self, words):
        self.words = list(words)
        self.vector = words[0]
        self.error_code = words[1]
        self.cr2 = words[2]
        self.eip = words[3]
        self.cs = words[4]
        self.eflags = words[5]
        self.regs = dict(zip(self.REG_NAMES, words[6:14]))
        self.tsc = words[14] if len(words) > 14 else 0
        self.pid = words[15] if len(words) > 15 else -1
        #: Nonzero when the kernel attempted kill-and-continue recovery
        #: after writing this dump (old dumps lack the word: fatal).
        self.recovered = words[16] if len(words) > 16 else 0

    def __repr__(self):
        return ("CrashRecord(vector=%d, cr2=%#x, eip=%#x, tsc=%d%s)"
                % (self.vector, self.cr2, self.eip, self.tsc,
                   ", recovered" if self.recovered else ""))


class RunResult:
    """Outcome of one machine run."""

    def __init__(self, status, exit_code, console, crash, cycles, instret,
                 disk_image, detail="", crashes=None, trace=None,
                 translation=None):
        #: "shutdown" (clean power-off), "halted" (CPU wedged — a dumped
        #: crash if ``crash`` is set, otherwise a hang), "watchdog"
        #: (hang), or "triple_fault" (unknown crash, no dump possible).
        self.status = status
        self.exit_code = exit_code
        self.console = console
        self.crash = crash          # CrashRecord or None (the last dump)
        #: Every dump record written during the run, in order.  A fault
        #: taken inside the crash handler writes a second record; the
        #: full list makes such nested faults visible to propagation
        #: analysis instead of silently keeping only the last.
        if crashes is not None:
            self.crashes = list(crashes)
        else:
            self.crashes = [crash] if crash is not None else []
        self.cycles = cycles
        self.instret = instret
        self.disk_image = disk_image
        self.detail = detail
        #: :class:`~repro.tracing.ring.Trace` snapshot when the machine
        #: ran with :meth:`Machine.enable_trace`, else ``None``.
        self.trace = trace
        #: Translation-cache telemetry dict (blocks translated, hits,
        #: invalidations, single_steps, resident) when the machine ran
        #: with ``Machine(translate=True)``, else ``None``.  Telemetry
        #: only — a translated run's architectural results are
        #: bit-identical to the interpreter's.
        self.translation = translation

    @property
    def crashed(self):
        return self.crash is not None or self.status == "triple_fault"

    @property
    def recovered_dumps(self):
        """Dump records after which the kernel kept running."""
        return [c for c in self.crashes if getattr(c, "recovered", 0)]

    @property
    def continued_after_dump(self):
        """The kernel wrote a crash dump yet the machine ran on.

        Distinct from "halted": a fail-stop kernel always halts at its
        dump, so this is only true for recovery kernels that killed the
        offending task and rescheduled (whatever the eventual status —
        a recovered run may still shut down, hang, or crash later).
        """
        return bool(self.recovered_dumps)

    def __repr__(self):
        return "RunResult(%s, exit=%r, cycles=%d)" % (
            self.status, self.exit_code, self.cycles)


def build_standard_disk(binaries, workload, extra_files=None):
    """Assemble the root filesystem image.

    Args:
        binaries: name -> :class:`~repro.userland.build.UserBinary`.
        workload: program that ``init`` should run (e.g. ``"pipe"``),
            or None for a boot-only image.
        extra_files: extra path -> bytes entries.
    """
    files = {"/lib/libc.txt": LIBC_CONTENT,
             "/etc/motd": b"Welcome to linux-sim 2.4.19-repro\n"}
    for name, binary in binaries.items():
        files["/bin/" + name] = binary.image
    if workload is not None:
        files["/etc/workload"] = ("/bin/" + workload).encode()
    if extra_files:
        files.update(extra_files)
    return mkfs(files)


class Machine:
    """One bootable machine instance.

    The constructor is cheap relative to a run: it copies the kernel
    image and disk image into fresh RAM, so every injection experiment
    gets a pristine machine, exactly like the paper's reboot-per-run
    protocol.
    """

    def __init__(self, kernel, disk_image, layout=None, timer=True,
                 translate=False):
        self.kernel = kernel
        self.layout = layout or kernel.layout or KernelLayout()
        lay = self.layout
        self.bus = MemoryBus(lay.RAM_BYTES)
        # Kernel image into physical memory.
        self.bus.phys_write_bytes(lay.KERNEL_PHYS, kernel.code)
        # Boot page tables: linear kernel map + MMIO window.
        builder = PageTableBuilder(self.bus, lay.BOOT_PGDIR_PHYS)
        builder.map_range(lay.KERNEL_BASE, 0, lay.RAM_BYTES)
        builder.map_range(lay.KERNEL_BASE + lay.MMIO_PHYS, lay.MMIO_PHYS,
                          lay.MMIO_BYTES)
        builder.activate()
        # Devices.
        self.console = ConsoleDevice()
        self.disk = DiskDevice(self.bus, disk_image)
        self.dump = DumpDevice()
        self.bus.attach_device(lay.CONSOLE_PHYS, 0x100, self.console)
        self.bus.attach_device(lay.DISK_PHYS, 0x100, self.disk)
        self.bus.attach_device(lay.DUMP_PHYS, 0x100, self.dump)
        self.bus.attach_device(lay.SHUTDOWN_PHYS, 0x100, ShutdownDevice())
        # CPU.
        self.cpu = CPU(self.bus)
        self.cpu.eip = kernel.symbols["_start"]
        if timer:
            self.cpu.timer_interval = lay.TIMER_INTERVAL
            self.cpu.timer_next = lay.TIMER_INTERVAL
        self._page_table_pages = builder.next_free
        self.tracer = None
        self.translate = bool(translate)
        self.block_cache = None
        if self.translate:
            self._arm_translation()

    def _arm_translation(self):
        """Attach a translated-execution block cache to this machine.

        Per-machine (closures are cheap to build but the underlying RAM
        diverges between clones); the CFG leader sweep is cached on the
        kernel image so campaigns pay it once.
        """
        from repro.cpu.translate import BlockCache, kernel_block_leaders
        self.block_cache = BlockCache(
            self.bus, leaders=kernel_block_leaders(self.kernel))
        self.cpu.translator = self.block_cache

    # -- injection plumbing -------------------------------------------------

    def arm_breakpoint(self, vaddr, callback):
        """Arm DR0 at *vaddr*; *callback(machine)* fires on first hit.

        This is the paper's injection trigger: the injector flips a bit
        in the instruction, records the cycle counter, disarms the
        breakpoint, and resumes the kernel.
        """
        cpu = self.cpu

        def hook(_cpu, index):
            cpu.write_dr(7, 0)      # one-shot
            callback(self)

        cpu.write_dr(0, vaddr)
        cpu.write_dr(7, 1)
        cpu.on_breakpoint = hook

    def flip_bit(self, vaddr, bit):
        """Flip one bit of the byte at kernel-virtual *vaddr*."""
        phys = vaddr - self.layout.KERNEL_BASE
        value = self.bus.phys_read(phys, 1)
        self.bus.phys_write(phys, 1, value ^ (1 << bit))

    def write_byte(self, vaddr, value):
        phys = vaddr - self.layout.KERNEL_BASE
        self.bus.phys_write(phys, 1, value & 0xFF)

    def write_word(self, vaddr, value):
        phys = vaddr - self.layout.KERNEL_BASE
        self.bus.phys_write(phys, 4, value & 0xFFFFFFFF)

    def enable_recovery(self, panic_on_oops=False):
        """Arm the kernel's recovery ladder (patch before booting).

        Sets the ``recovery_enabled`` kernel global (and optionally
        ``panic_on_oops``) in the pristine image, the host-side
        equivalent of a boot parameter.
        """
        self.write_word(self.kernel.symbols["recovery_enabled"], 1)
        if panic_on_oops:
            self.write_word(self.kernel.symbols["panic_on_oops"], 1)

    def enable_disk_retry(self, retries=2):
        """Arm the IDE driver's bounded retry/backoff path (patch
        before booting, like :meth:`enable_recovery`).

        Sets the ``disk_retries`` kernel global: a failed disk transfer
        is then re-issued up to *retries* times with linear backoff
        before ``-EIO`` propagates.  The default 0 (fail-stop driver)
        is what the paper measured; the knob exists for the
        graceful-degradation ablations of the fault-model framework.
        """
        self.write_word(self.kernel.symbols["disk_retries"],
                        int(retries))

    def enable_trace(self, channels=None, capacity=None):
        """Arm the execution flight recorder for this machine's runs.

        Args:
            channels: iterable of channel names from
                :data:`repro.tracing.ring.CHANNELS` (default: retired
                branches + traps, what the divergence diff needs).
            capacity: ring capacity in events; ``None`` records the
                whole run (needed for exact golden-vs-injected
                diffing), a finite value keeps a flight-recorder
                window and counts what it overwrote.

        Recording is purely observational — a traced run is
        bit-identical to an untraced one.  The tracer survives
        multiple ``run`` calls on this machine; clones of a snapshot
        start untraced and must call ``enable_trace`` themselves.
        Returns the :class:`~repro.tracing.recorder.Tracer`.
        """
        from repro.tracing.recorder import Tracer
        from repro.tracing.ring import DEFAULT_CHANNELS, EV_SUBSYS
        channels = tuple(channels) if channels else DEFAULT_CHANNELS
        subsystem_of = None
        if EV_SUBSYS in channels:
            subsystem_of = self.trace_domain_of
        self.tracer = Tracer(self.cpu, channels=channels,
                             capacity=capacity,
                             subsystem_of=subsystem_of)
        return self.tracer

    def trace_domain_of(self, eip):
        """Trace-domain name for an address: subsystem, user, or gap."""
        if eip < self.layout.KERNEL_BASE:
            return "user"
        info = self.kernel.find_function(eip)
        return info.subsystem if info is not None else "(kernel)"

    def read_byte(self, vaddr):
        return self.bus.phys_read(vaddr - self.layout.KERNEL_BASE, 1)

    def read_word(self, vaddr):
        return self.bus.phys_read(vaddr - self.layout.KERNEL_BASE, 4)

    def snapshot(self):
        """Freeze the current state (see :class:`MachineSnapshot`)."""
        return MachineSnapshot(self)

    def release(self):
        """Free this machine's RAM and disk buffers; it cannot run again.

        A machine's object graph is cyclic (devices and armed hooks
        point back at the bus and the CPU), so refcounting never frees
        an abandoned machine: its buffers wait for a full collection.
        Campaigns release each clone once its run is classified.
        """
        self.bus.ram.clear()
        self.disk.image.clear()

    # -- running -------------------------------------------------------------

    def run(self, max_cycles=DEFAULT_WATCHDOG, checkpoints=None):
        """Boot/resume the machine until it stops; returns a RunResult.

        With *checkpoints* (a :class:`CheckpointRecorder` of this
        machine) the run goes in the recorder's chunks, checkpointing
        between them and collecting coverage.
        """
        cpu = self.cpu
        status = "watchdog"
        exit_code = None
        detail = ""
        try:
            if checkpoints is not None:
                checkpoints.run(max_cycles)
            else:
                cpu.run(max_cycles)
        except MachineShutdown as stop:
            status = "shutdown"
            exit_code = stop.code
        except CpuHalted as stop:
            status = "halted"
            detail = str(stop)
        except WatchdogExpired as stop:
            status = "watchdog"
            detail = str(stop)
        except TripleFault as stop:
            status = "triple_fault"
            detail = str(stop)
        crashes = [CrashRecord(words) for words in self.dump.records]
        return RunResult(
            status=status,
            exit_code=exit_code,
            console=self.console.text,
            crash=crashes[-1] if crashes else None,
            cycles=cpu.cycles,
            instret=cpu.instret,
            disk_image=bytes(self.disk.image),
            detail=detail,
            crashes=crashes,
            trace=(self.tracer.snapshot() if self.tracer is not None
                   else None),
            translation=(self.block_cache.stats()
                         if self.block_cache is not None else None),
        )

    def run_until_console(self, marker, max_cycles=DEFAULT_WATCHDOG,
                          chunk=4096, coverage=None):
        """Run until *marker* appears on the console (boot milestone).

        Used to reproduce the paper's protocol: the injector is armed on
        a running system, just before the benchmark starts.  Raises
        WatchdogExpired if the marker never appears.  *coverage*, when
        given, collects every executed EIP (the delta planner uses it
        to learn which functions boot executes).
        """
        needle = marker.encode("latin-1")
        cpu = self.cpu
        while needle not in self.console.buffer:
            if cpu.cycles >= max_cycles:
                raise WatchdogExpired("marker %r never appeared" % marker)
            try:
                cpu.run(min(cpu.cycles + chunk, max_cycles),
                        coverage=coverage)
            except WatchdogExpired:
                if cpu.cycles >= max_cycles:
                    raise

    def run_sampled(self, max_cycles=DEFAULT_WATCHDOG, sample_interval=997,
                    skip_cycles=0):
        """Run while sampling the program counter (Kernprof-style).

        Returns ``(RunResult, samples)`` where *samples* is a list of
        sampled EIP values.  The odd default interval avoids aliasing
        with loop periods, as real sampling profilers do.  Samples before
        *skip_cycles* are discarded (lets profiling exclude boot, like
        the paper's steady-state Kernprof runs).
        """
        cpu = self.cpu
        samples = []
        status = exit_code = None
        detail = ""
        try:
            while cpu.cycles < max_cycles:
                try:
                    cpu.run(min(cpu.cycles + sample_interval, max_cycles))
                except WatchdogExpired:
                    if cpu.cycles >= max_cycles:
                        raise
                if cpu.cycles >= skip_cycles:
                    samples.append(cpu.eip)
            raise WatchdogExpired("profiling budget exhausted")
        except MachineShutdown as stop:
            status, exit_code = "shutdown", stop.code
        except CpuHalted as stop:
            status, detail = "halted", str(stop)
        except WatchdogExpired as stop:
            status, detail = "watchdog", str(stop)
        except TripleFault as stop:
            status, detail = "triple_fault", str(stop)
        crashes = [CrashRecord(words) for words in self.dump.records]
        result = RunResult(status, exit_code, self.console.text,
                           crashes[-1] if crashes else None,
                           cpu.cycles, cpu.instret,
                           bytes(self.disk.image), detail,
                           crashes=crashes,
                           trace=(self.tracer.snapshot()
                                  if self.tracer is not None else None),
                           translation=(self.block_cache.stats()
                                        if self.block_cache is not None
                                        else None))
        return result, samples


class MachineSnapshot:
    """Frozen machine state (RAM, disk, CPU, devices) for fast cloning.

    Booting to the injection point costs more than most injected runs;
    campaigns snapshot the freshly-booted machine once per workload and
    clone it per experiment.  Cloning copies every mutable buffer, so a
    clone is exactly as pristine as a fresh boot (verified by test).

    A snapshot taken with *base* is a copy-on-write checkpoint: it
    shares *base*'s RAM and disk images and keeps only *pages* and
    *blocks*, ``{index: bytes}`` maps of the 4 KiB RAM pages and disk
    blocks that differ from them (see :class:`CheckpointRecorder`).
    """

    CPU_FIELDS = ("eip", "cf", "pf", "zf", "sf", "of", "if_flag", "df",
                  "cpl", "cr0", "cr2", "cr4", "esp0", "idt_base",
                  "cycles", "timer_interval", "timer_next",
                  "pending_irq", "instret", "fault_depth")

    #: Disk controller registers and transfer counters.  Idle at boot,
    #: live mid-workload: a checkpoint may fall between a command and
    #: the driver's status read.
    DISK_FIELDS = ("sector", "count", "dma", "status", "reads", "writes")

    def __init__(self, machine, base=None, pages=None, blocks=None):
        cpu = machine.cpu
        self.kernel = machine.kernel
        self.layout = machine.layout
        if base is None:
            self.ram = bytes(machine.bus.ram)
            self.disk = bytes(machine.disk.image)
        else:
            self.ram = base.ram
            self.disk = base.disk
        self.pages = pages or {}
        self.blocks = blocks or {}
        self.cr3 = machine.bus.cr3
        self.paging_enabled = machine.bus.paging_enabled
        self.disk_regs = {name: getattr(machine.disk, name)
                          for name in self.DISK_FIELDS}
        self.console = bytes(machine.console.buffer)
        self.regs = list(cpu.regs)
        self.segs = list(cpu.segs)
        self.dr = list(cpu.dr)
        self.fields = {name: getattr(cpu, name)
                       for name in self.CPU_FIELDS}
        #: Clones inherit the execution mode; since translated and
        #: interpreted runs are bit-identical, a snapshot restored from
        #: a store may have this overridden by the harness that loads
        #: it (the state itself is mode-independent).
        self.translate = getattr(machine, "translate", False)

    def clone(self):
        """Materialize a runnable Machine from this snapshot."""
        machine = Machine.__new__(Machine)
        machine.kernel = self.kernel
        machine.layout = self.layout
        lay = self.layout
        bus = MemoryBus(lay.RAM_BYTES)
        bus.ram[:] = self.ram
        _overlay(bus.ram, self.pages)
        bus.cr3 = self.cr3
        bus.paging_enabled = self.paging_enabled
        machine.bus = bus
        machine.console = ConsoleDevice()
        machine.console.buffer[:] = self.console
        machine.disk = DiskDevice(bus, self.disk)
        _overlay(machine.disk.image, self.blocks)
        for name, value in self.disk_regs.items():
            setattr(machine.disk, name, value)
        machine.dump = DumpDevice()
        bus.attach_device(lay.CONSOLE_PHYS, 0x100, machine.console)
        bus.attach_device(lay.DISK_PHYS, 0x100, machine.disk)
        bus.attach_device(lay.DUMP_PHYS, 0x100, machine.dump)
        bus.attach_device(lay.SHUTDOWN_PHYS, 0x100, ShutdownDevice())
        cpu = CPU(bus)
        cpu.regs[:] = self.regs
        cpu.segs[:] = self.segs
        for index, value in enumerate(self.dr):
            cpu.dr[index] = value
        cpu._recompute_breakpoints()
        for name, value in self.fields.items():
            setattr(cpu, name, value)
        machine.cpu = cpu
        machine._page_table_pages = None
        machine.tracer = None
        machine.translate = getattr(self, "translate", False)
        machine.block_cache = None
        if machine.translate:
            machine._arm_translation()
        return machine


def _overlay(image, chunks):
    """Write ``{index: bytes}`` 4 KiB *chunks* over *image*."""
    for index, chunk in chunks.items():
        start = index << PAGE_SHIFT
        image[start:start + PAGE_SIZE] = chunk


class CheckpointRecorder:
    """Runs a machine in chunks, taking a checkpoint after each.

    Checkpoint 0 is a full snapshot of the machine as handed over.  Each
    later one is a copy-on-write :class:`MachineSnapshot` against it:
    only the 4 KiB RAM pages and disk blocks that differ from checkpoint
    0 are kept, and a page unchanged since the previous checkpoint
    shares that checkpoint's bytes object.  The bus's page write
    counters name the pages to re-read, so a checkpoint costs time in
    the pages written since the last one, not in the size of RAM.

    ``first_index`` maps every executed address to the index of the last
    checkpoint taken before the address first executed; a run resumed
    from that checkpoint reaches the address as the recorded run did.
    With *interval* ``None`` the run is one chunk and only checkpoint 0
    exists.
    """

    def __init__(self, machine, interval):
        self.machine = machine
        self.interval = interval
        self.checkpoints = [machine.snapshot()]
        self.first_index = {}
        self._versions = list(machine.bus.page_versions)
        self._disk_writes = machine.disk.writes

    def run(self, max_cycles):
        """Run the CPU to completion (raises like :meth:`CPU.run`)."""
        cpu = self.machine.cpu
        first = self.first_index
        executed = set()
        while True:
            stop = max_cycles
            if self.interval is not None:
                stop = min(cpu.cycles + self.interval, max_cycles)
            try:
                cpu.run(stop, coverage=executed)
            except WatchdogExpired:
                if stop >= max_cycles:
                    raise
            finally:
                first.update(dict.fromkeys(executed - first.keys(),
                                           len(self.checkpoints) - 1))
            self.take()

    def take(self):
        """Checkpoint the machine as it is now; appends and returns it."""
        machine = self.machine
        base = self.checkpoints[0]
        previous = self.checkpoints[-1]
        ram = machine.bus.ram
        versions = machine.bus.page_versions
        pages = dict(previous.pages)
        for index in compress(count(), map(ne, versions, self._versions)):
            start = index << PAGE_SHIFT
            page = bytes(ram[start:start + PAGE_SIZE])
            if page == base.ram[start:start + PAGE_SIZE]:
                pages.pop(index, None)
            elif pages.get(index) != page:
                pages[index] = page
        self._versions = list(versions)
        blocks = previous.blocks
        if machine.disk.writes != self._disk_writes:
            self._disk_writes = machine.disk.writes
            image = machine.disk.image
            blocks = {}
            for start in range(0, len(image), PAGE_SIZE):
                block = image[start:start + PAGE_SIZE]
                if block != base.disk[start:start + PAGE_SIZE]:
                    index = start >> PAGE_SHIFT
                    old = previous.blocks.get(index)
                    blocks[index] = old if old == block else bytes(block)
        snapshot = MachineSnapshot(machine, base=base, pages=pages,
                                   blocks=blocks)
        self.checkpoints.append(snapshot)
        return snapshot


def parse_bx_header(image):
    """Parse a user binary header -> (magic, entry, filesz, bss)."""
    return struct.unpack_from("<4I", image, 0)
