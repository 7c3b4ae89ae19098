"""Platform description files: which processing units exist and what they can
do, and `bind`: which of them serve a directive, and with what chunk sizes.

A ``.pdl`` file is a small XML document::

    <platform name="DISA">
      <pu id="0" type="cpu" cores="20" threads="40" cache_mb="27.5"
          frequency_ghz="2.4" memory_gb="768"/>
      <pu id="1" type="gpu" cores="1792" frequency_ghz="1.48" memory_gb="8">
        <sim speed_factor="4.0" transfer_cost_per_mb="0.001"/>
      </pu>
    </platform>

``threads`` is required for ``cpu`` units and optional for accelerators;
``cache_mb`` defaults to 0; ``tdp_w`` is accepted and ignored. The optional
``<sim>`` child configures the simulated timing model (relative speed and
seconds per transferred MB), defaulting per unit type.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

from hstream import errors
from hstream.errors import ConfigurationError, Diagnostic, PdlError, ResolveError
from hstream.ir import (
    ALL_DEVICES,
    AllDevices,
    AutoSchedule,
    DeviceIds,
    DeviceSelector,
    PerDeviceSchedule,
    SchedulingSpec,
    UniformSchedule,
)


class PuKind(Enum):
    CPU = "cpu"
    GPU = "gpu"
    MIC = "mic"


# Default simulated (speed_factor, transfer_cost_per_mb) by unit type.
_SIM_DEFAULTS = {
    PuKind.CPU: (1.0, 0.0),
    PuKind.GPU: (4.0, 0.001),
    PuKind.MIC: (2.0, 0.002),
}


@dataclass(frozen=True)
class ProcessingUnit:
    id: int
    kind: PuKind
    cores: int
    threads: Optional[int]
    cache_mb: float
    frequency_ghz: float
    memory_gb: float
    speed_factor: float
    transfer_cost_per_mb: float
    tdp_w: Optional[float] = None

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gb * 2**30)


@dataclass(frozen=True)
class PlatformDescription:
    name: str
    pus: tuple[ProcessingUnit, ...]

    def by_id(self, pu_id: int) -> ProcessingUnit:
        for pu in self.pus:
            if pu.id == pu_id:
                return pu
        raise KeyError(pu_id)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(pu.id for pu in self.pus)

    def of_kind(self, kind: PuKind) -> tuple[ProcessingUnit, ...]:
        return tuple(pu for pu in self.pus if pu.kind is kind)


# --- XML reading -------------------------------------------------------------

@dataclass
class _El:
    tag: str
    attrs: dict[str, str]
    line: int
    col: int
    children: list["_El"]


def _read_xml(text: str) -> _El:
    parser = xml.parsers.expat.ParserCreate()
    stack: list[_El] = []
    root: list[_El] = []

    def start(tag, attrs):
        el = _El(tag, dict(attrs), parser.CurrentLineNumber,
                 parser.CurrentColumnNumber + 1, [])
        if stack:
            stack[-1].children.append(el)
        else:
            root.append(el)
        stack.append(el)

    def end(tag):
        stack.pop()

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise PdlError([Diagnostic(exc.lineno, exc.offset + 1, errors.PDL_XML,
                                   f"malformed XML: {xml.parsers.expat.errors.messages[exc.code]}")])
    if not root:
        raise PdlError([Diagnostic(1, 1, errors.PDL_XML, "empty document")])
    return root[0]


class _PuReader:
    """Validates one <pu> element, accumulating diagnostics instead of failing fast."""

    def __init__(self, el: _El, diags: list[Diagnostic]):
        self.el = el
        self.diags = diags

    def _diag(self, code: str, message: str) -> None:
        self.diags.append(Diagnostic(self.el.line, self.el.col, code, message))

    def attr(self, name: str, required: bool = True) -> Optional[str]:
        value = self.el.attrs.get(name)
        if value is None and required:
            self._diag(errors.PDL_ATTR, f"<pu> is missing required attribute '{name}'")
        return value

    def number(self, name: str, required: bool = True, minimum: float = 0.0,
               integer: bool = False, default: Optional[float] = None,
               strict_min: bool = False) -> Optional[float]:
        raw = self.attr(name, required)
        if raw is None:
            return default
        try:
            value = float(raw)
            if integer:
                if value != int(value):
                    raise ValueError
                value = int(value)
        except ValueError:
            self._diag(errors.PDL_VALUE,
                       f"attribute '{name}' must be {'an integer' if integer else 'a number'}, got '{raw}'")
            return None
        if value < minimum or (strict_min and value == minimum):
            bound = f"> {minimum}" if strict_min else f">= {minimum}"
            self._diag(errors.PDL_VALUE, f"attribute '{name}' must be {bound}, got '{raw}'")
            return None
        return value

    def read(self) -> Optional[ProcessingUnit]:
        before = len(self.diags)
        pu_id = self.number("id", integer=True)
        kind_raw = self.attr("type")
        kind: Optional[PuKind] = None
        if kind_raw is not None:
            try:
                kind = PuKind(kind_raw.lower())
            except ValueError:
                self._diag(errors.PDL_VALUE,
                           f"attribute 'type' must be one of cpu|gpu|mic, got '{kind_raw}'")
        cores = self.number("cores", integer=True, minimum=0, strict_min=True)
        threads = self.number("threads", required=(kind is PuKind.CPU),
                              integer=True, minimum=0, strict_min=True)
        cache_mb = self.number("cache_mb", required=False, default=0.0)
        frequency = self.number("frequency_ghz", minimum=0, strict_min=True)
        memory = self.number("memory_gb", minimum=0, strict_min=True)
        tdp = self.number("tdp_w", required=False)

        if kind is PuKind.CPU and threads is not None and cores is not None and threads < cores:
            self._diag(errors.PDL_VALUE,
                       f"cpu unit must have threads >= cores (got {int(threads)} < {int(cores)})")

        speed, transfer = _SIM_DEFAULTS.get(kind, (1.0, 0.0))
        for child in self.el.children:
            if child.tag != "sim":
                self.diags.append(Diagnostic(child.line, child.col, errors.PDL_XML,
                                             f"unexpected element <{child.tag}> inside <pu>"))
                continue
            sub = _PuReader(child, self.diags)
            s = sub.number("speed_factor", required=False, minimum=0, strict_min=True)
            t = sub.number("transfer_cost_per_mb", required=False, minimum=0)
            if s is not None:
                speed = s
            if t is not None:
                transfer = t

        if len(self.diags) > before:
            return None
        return ProcessingUnit(
            id=int(pu_id), kind=kind, cores=int(cores),
            threads=None if threads is None else int(threads),
            cache_mb=float(cache_mb), frequency_ghz=float(frequency),
            memory_gb=float(memory), speed_factor=speed,
            transfer_cost_per_mb=transfer,
            tdp_w=None if tdp is None else float(tdp),
        )


def parse_pdl(text: str) -> PlatformDescription:
    """Parse and validate platform description text.

    Raises PdlError carrying one diagnostic (with line number and attribute
    name) per problem found.
    """
    root = _read_xml(text)
    diags: list[Diagnostic] = []
    if root.tag != "platform":
        raise PdlError([Diagnostic(root.line, root.col, errors.PDL_XML,
                                   f"expected <platform> root element, got <{root.tag}>")])
    name = root.attrs.get("name")
    if name is None:
        diags.append(Diagnostic(root.line, root.col, errors.PDL_ATTR,
                                "<platform> is missing required attribute 'name'"))
        name = ""

    pus: list[ProcessingUnit] = []
    seen_ids: dict[int, int] = {}
    for child in root.children:
        if child.tag != "pu":
            diags.append(Diagnostic(child.line, child.col, errors.PDL_XML,
                                    f"unexpected element <{child.tag}> inside <platform>"))
            continue
        pu = _PuReader(child, diags).read()
        if pu is None:
            continue
        if pu.id in seen_ids:
            diags.append(Diagnostic(child.line, child.col, errors.PDL_DUP_ID,
                                    f"duplicate pu id {pu.id} (first defined on line {seen_ids[pu.id]})"))
            continue
        seen_ids[pu.id] = child.line
        pus.append(pu)

    if not diags:
        if not pus:
            diags.append(Diagnostic(root.line, root.col, errors.PDL_EMPTY,
                                    "platform declares no processing units"))
        elif not any(pu.kind is PuKind.CPU for pu in pus):
            diags.append(Diagnostic(root.line, root.col, errors.PDL_NO_CPU,
                                    "platform must contain at least one cpu unit "
                                    "(the host program and its driver run on it)"))
    if diags:
        raise PdlError(diags)
    return PlatformDescription(name=name, pus=tuple(pus))


def parse_pdl_file(path: Union[str, Path]) -> PlatformDescription:
    return parse_pdl(Path(path).read_text(encoding="utf-8"))


def resolve_devices(platform: PlatformDescription,
                    selector: DeviceSelector = ALL_DEVICES) -> list[ProcessingUnit]:
    """Resolve a device selector to processing units.

    AllDevices preserves the file's unit ordering; an id list returns exactly
    those units in the listed order. Unknown ids, duplicate ids, and empty
    lists raise ResolveError.
    """
    if isinstance(selector, AllDevices):
        return list(platform.pus)
    if not isinstance(selector, DeviceIds):
        raise TypeError(f"not a device selector: {selector!r}")
    if not selector.ids:
        raise ResolveError("device list resolves to no processing units")
    known = set(platform.ids)
    seen: set[int] = set()
    out: list[ProcessingUnit] = []
    for pu_id in selector.ids:
        if pu_id not in known:
            raise ResolveError(f"unknown device id {pu_id} "
                               f"(platform '{platform.name}' has ids {sorted(known)})")
        if pu_id in seen:
            raise ResolveError(f"device id {pu_id} listed more than once")
        seen.add(pu_id)
        out.append(platform.by_id(pu_id))
    return out


# AUTO policy: aim for ~16 claims per unit, proportional to configured speed,
# clamped to [1 MB, 64 MB] worth of elements.
AUTO_TARGET_CLAIMS = 16
AUTO_MIN_BYTES = 2**20
AUTO_MAX_BYTES = 64 * 2**20


def chunk_size_for(pu: ProcessingUnit, spec: SchedulingSpec, total: int,
                   engaged: Sequence[ProcessingUnit],
                   element_size: int = 8) -> int:
    """Chunk size in elements for one unit among the `engaged` units under a
    scheduling choice.

    Uniform applies one size to every unit; per-device looks the unit up (a
    missing entry is a configuration error, raised before any chunk is claimed);
    AUTO splits the total proportionally to the engaged units' speeds, targeting
    AUTO_TARGET_CLAIMS claims per unit, clamped to [1 MB, 64 MB] worth of
    elements.
    """
    if isinstance(spec, UniformSchedule):
        return spec.chunk_elements
    if isinstance(spec, PerDeviceSchedule):
        sizes = spec.as_dict()
        if pu.id not in sizes:
            raise ConfigurationError(
                f"per-device scheduling does not list engaged pu {pu.id}")
        return sizes[pu.id]
    if isinstance(spec, AutoSchedule):
        weight_sum = sum(p.speed_factor for p in engaged)
        raw = round(total * pu.speed_factor / (AUTO_TARGET_CLAIMS * weight_sum))
        lo = max(1, AUTO_MIN_BYTES // element_size)
        hi = max(lo, AUTO_MAX_BYTES // element_size)
        return min(max(raw, lo), hi)
    raise TypeError(f"not a scheduling spec: {spec!r}")


def bind(platform: PlatformDescription, device: DeviceSelector,
         scheduling: SchedulingSpec, total: int,
         element_size: int) -> tuple[list[ProcessingUnit], list[int]]:
    """The units that serve a directive on `platform`, in resolved order, and
    each one's chunk size for `total` elements (AUTO's is its 1 MB floor at 0).
    ResolveError rejects the device list, ConfigurationError the scheduling
    clause: a per-device clause lists exactly the engaged units."""
    units = resolve_devices(platform, device)
    sizes = [chunk_size_for(pu, scheduling, total, units, element_size) for pu in units]
    if isinstance(scheduling, PerDeviceSchedule):
        engaged = {pu.id for pu in units}
        extra = [pu_id for pu_id, _ in scheduling.entries if pu_id not in engaged]
        if extra:
            raise ConfigurationError(f"per-device scheduling lists pu {extra[0]}, "
                                     "which the directive does not engage")
    return units, sizes
