"""Solomon-format parsing and construction of specimen-collection instances.

An instance is a depot (the laboratory) plus n points of care, a travel-time
matrix satisfying the triangle inequality, a fleet bound K, a per-vehicle
shift cap and a depot return deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Benchmark fleet sizes by instance size class.
FLEET_BY_SIZE = {25: 10, 50: 15, 100: 25}

TRIANGLE_TOL = 1e-9


class SolomonParseError(ValueError):
    """Malformed Solomon instance file."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InstanceError(ValueError):
    """Instance construction failed (bad ids, fleet size, triangle violation)."""


@dataclass(frozen=True)
class Site:
    """One row of the site table; id 0 is the depot (laboratory)."""

    id: int
    x: float
    y: float
    release: float
    deadline: float
    service: float = 0.0

    def __post_init__(self):
        if self.release < 0 or self.deadline < 0:
            raise InstanceError(f"site {self.id}: negative time window bound")
        if self.release > self.deadline:
            raise InstanceError(
                f"site {self.id}: release {self.release} > deadline {self.deadline}"
            )
        if self.service < 0:
            raise InstanceError(f"site {self.id}: negative service time")


@dataclass(frozen=True)
class Setting:
    """Optional benchmark-grid metadata for an instance."""

    size: int | None = None
    klass: str | None = None  # spatial class: C, R or RC
    tw: str | None = None  # time-window class: tight or wide

    def as_tuple(self) -> tuple:
        return (self.size, self.klass, self.tw)


@dataclass(frozen=True)
class RawInstance:
    """Verbatim content of a Solomon file: site rows plus the vehicle block."""

    name: str
    vehicle_number: int
    vehicle_capacity: float
    sites: tuple[Site, ...]
    demands: tuple[float, ...]  # parsed but unused downstream


@dataclass(frozen=True)
class InstanceConfig:
    """Construction rules applied on top of a parsed Solomon file.

    fleet_size: explicit integer, "file" (vehicle NUMBER from the file) or
        "size-class" (25/50/100 nodes -> 10/15/25 vehicles, falling back to
        the file value when the size class is unknown).
    shift_cap: explicit number or "depot-deadline" (cap equals d_0, making
        the shift constraint non-binding beyond the horizon).
    service_mode: "ignore" or "fold" (add each site's service time to all
        its outgoing arcs).
    rounding: None for full floating-point distances, or a fixed number of
        decimals.
    """

    fleet_size: int | str = "size-class"
    shift_cap: float | str = "depot-deadline"
    service_mode: str = "ignore"
    rounding: int | None = None

    def __post_init__(self):
        if isinstance(self.fleet_size, str) and self.fleet_size not in ("file", "size-class"):
            raise InstanceError(f"unknown fleet_size rule {self.fleet_size!r}")
        if isinstance(self.shift_cap, str) and self.shift_cap != "depot-deadline":
            raise InstanceError(f"unknown shift_cap rule {self.shift_cap!r}")
        if self.service_mode not in ("ignore", "fold"):
            raise InstanceError(f"unknown service_mode {self.service_mode!r}")
        if self.rounding is not None and (not isinstance(self.rounding, int) or self.rounding < 0):
            raise InstanceError("rounding must be None or a nonnegative integer")

    def fingerprint(self) -> dict:
        """Reporting metadata: which conventions produced the numbers."""
        return {
            "fleet_size_rule": self.fleet_size,
            "shift_cap_rule": self.shift_cap,
            "service_mode": self.service_mode,
            "distance_rounding": self.rounding if self.rounding is not None else "none",
        }


@dataclass(frozen=True)
class Instance:
    """A fully configured instance, immutable after construction."""

    sites: tuple[Site, ...]  # depot first, ids 0..n
    travel: np.ndarray  # (n+1) x (n+1), zero diagonal, triangle inequality
    fleet_size: int
    shift_cap: float
    depot_deadline: float
    label: str = ""
    setting: Setting | None = None

    def __post_init__(self):
        n = len(self.sites) - 1
        if n < 1:
            raise InstanceError("instance needs at least one point of care")
        ids = [s.id for s in self.sites]
        if ids != list(range(n + 1)):
            raise InstanceError(f"site ids must be 0..{n}, got {ids}")
        if self.sites[0].release != 0:
            raise InstanceError("depot release time must be 0")
        if self.fleet_size < 1:
            raise InstanceError(f"fleet size must be >= 1, got {self.fleet_size}")
        if self.shift_cap <= 0:
            raise InstanceError("shift cap must be positive")
        if self.depot_deadline <= 0:
            raise InstanceError("depot deadline must be positive")
        travel = np.asarray(self.travel, dtype=float)
        if travel.shape != (n + 1, n + 1):
            raise InstanceError(f"travel matrix must be {(n + 1, n + 1)}, got {travel.shape}")
        if np.any(travel < 0):
            raise InstanceError("travel times must be nonnegative")
        if np.any(np.diag(travel) != 0):
            raise InstanceError("travel matrix diagonal must be zero")
        violations = triangle_violations(travel)
        if violations:
            i, j, k, slack = violations[0]
            raise InstanceError(
                f"triangle inequality violated at ({i},{j},{k}): slack {slack:.6g}"
                f" ({len(violations)} violations total)"
            )
        travel.setflags(write=False)
        object.__setattr__(self, "travel", travel)

    @property
    def n(self) -> int:
        """Number of points of care."""
        return len(self.sites) - 1

    @property
    def points_of_care(self) -> range:
        return range(1, self.n + 1)


def triangle_violations(travel: np.ndarray) -> list[tuple[int, int, int, float]]:
    """All ordered triples (i,j,k) with travel[i,j] + travel[j,k] < travel[i,k]
    by more than TRIANGLE_TOL.

    Returns (i, j, k, slack) per violation with slack = c_ij + c_jk - c_ik
    (negative when violated), in (i, j, k) order. A matrix that has none is
    cleared in O(m^3) time and O(m^2) memory, by the shortest two-leg detour
    min_j (c_ij + c_jk), taken one j at a time; only a matrix that has some
    gets the exhaustive listing, an (m, m, m) slack cube.
    """
    t = np.asarray(travel, dtype=float)
    # rounding a subtraction preserves order, so min_j(s_j) - c_ik equals
    # min_j(s_j - c_ik) exactly; fmin skips NaN sums as the cube's compare does
    detour = np.full_like(t, math.inf)
    legs = np.empty_like(t)
    for j in range(len(t)):
        np.fmin(detour, np.add(t[:, j, None], t[None, j, :], out=legs), out=detour)
    if not np.any(detour - t < -TRIANGLE_TOL):
        return []
    slack = t[:, :, None] + t[None, :, :] - t[:, None, :]  # slack[i,j,k]
    bad = np.argwhere(slack < -TRIANGLE_TOL)
    return [(int(i), int(j), int(k), float(slack[i, j, k])) for i, j, k in bad]


def parse_solomon(text: str) -> RawInstance:
    """Parse a Solomon-layout instance file.

    Layout: title line, a VEHICLE block with NUMBER and CAPACITY, then a
    CUSTOMER block whose rows are
    ``CUST NO.  XCOORD.  YCOORD.  DEMAND  READY TIME  DUE DATE  SERVICE TIME``.
    Customer 0 is the depot. Site rows are returned in file order.
    """
    lines = text.splitlines()
    title = ""
    for line in lines:
        if line.strip():
            title = line.strip()
            break

    def find_keyword(word: str) -> int:
        for idx, line in enumerate(lines):
            if line.strip().upper() == word:
                return idx
        raise SolomonParseError(f"malformed header: no {word} block")

    veh_idx = find_keyword("VEHICLE")
    cust_idx = find_keyword("CUSTOMER")

    vehicle_number = None
    vehicle_capacity = None
    for idx in range(veh_idx + 1, cust_idx):
        tokens = lines[idx].split()
        if len(tokens) >= 2 and _is_number(tokens[0]) and _is_number(tokens[1]):
            number, vehicle_capacity = _fields(tokens[:2], idx + 1)
            vehicle_number = int(number)
            if number != vehicle_number:
                raise SolomonParseError(f"non-integer vehicle number {number}", idx + 1)
            break
    if vehicle_number is None:
        raise SolomonParseError("malformed header: VEHICLE block has no NUMBER/CAPACITY row")

    sites: list[Site] = []
    demands: list[float] = []
    seen: dict[int, int] = {}
    for idx in range(cust_idx + 1, len(lines)):
        tokens = lines[idx].split()
        if not tokens:
            continue
        # skip the column-header line of the CUSTOMER block (a row led by
        # nan or inf is a site row, and its field is rejected below)
        if not _is_number(tokens[0]):
            if sites:
                raise SolomonParseError(f"non-numeric field {tokens[0]!r}", idx + 1)
            continue
        if len(tokens) < 7:
            raise SolomonParseError(
                f"site row needs 7 fields, got {len(tokens)}", idx + 1
            )
        values = _fields(tokens[:7], idx + 1)
        site_id = int(values[0])
        if values[0] != site_id:
            raise SolomonParseError(f"non-integer site id {values[0]}", idx + 1)
        if site_id in seen:
            raise SolomonParseError(
                f"duplicate id {site_id} (first at line {seen[site_id]})", idx + 1
            )
        seen[site_id] = idx + 1
        sites.append(
            Site(
                id=site_id,
                x=values[1],
                y=values[2],
                release=values[4],
                deadline=values[5],
                service=values[6],
            )
        )
        demands.append(values[3])

    if not sites:
        raise SolomonParseError("no site rows in CUSTOMER block")
    if 0 not in seen:
        raise SolomonParseError("no depot (id 0)")

    return RawInstance(
        name=title,
        vehicle_number=vehicle_number,
        vehicle_capacity=vehicle_capacity,
        sites=tuple(sites),
        demands=tuple(demands),
    )


def write_solomon(raw: RawInstance) -> str:
    """Serialize a raw instance back to Solomon layout (numeric fields exact).

    Fields are right-aligned in the usual columns, with at least one space
    between them however long a value's exact text is.
    """
    out = [raw.name, "", "VEHICLE", "NUMBER     CAPACITY"]
    out.append(f"{raw.vehicle_number:>4} {_fmt(raw.vehicle_capacity):>12}")
    out.append("")
    out.append("CUSTOMER")
    out.append(
        "CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME"
    )
    out.append("")
    for site, demand in zip(raw.sites, raw.demands):
        fields = (site.id, site.x, site.y, demand, site.release, site.deadline, site.service)
        out.append("".join(f" {_fmt(v):>10}" for v in fields))
    return "\n".join(out) + "\n"


def build_instance(
    raw: RawInstance,
    cfg: InstanceConfig,
    setting: Setting | None = None,
    label: str | None = None,
) -> Instance:
    """Assemble an Instance from a parsed file under the given construction rules.

    Travel times are Euclidean distances, optionally rounded to a fixed number
    of decimals and optionally with each site's service time folded into all
    of its outgoing arcs (depot service assumed 0). The triangle inequality is
    re-verified after rounding/folding. `Instance` rejects non-contiguous
    site ids and a fleet below 1.
    """
    sites = tuple(sorted(raw.sites, key=lambda s: s.id))
    n = len(sites) - 1

    xy = np.array([(s.x, s.y) for s in sites], dtype=float)
    diff = xy[:, None, :] - xy[None, :, :]
    travel = np.hypot(diff[:, :, 0], diff[:, :, 1])
    if cfg.rounding is not None:
        travel = np.round(travel, cfg.rounding)
    if cfg.service_mode == "fold":
        service = np.array([s.service for s in sites], dtype=float)
        service[0] = 0.0
        off_diag = ~np.eye(n + 1, dtype=bool)
        travel = travel + service[:, None] * off_diag
    np.fill_diagonal(travel, 0.0)

    if isinstance(cfg.fleet_size, int):
        fleet = cfg.fleet_size
    elif cfg.fleet_size == "file":
        fleet = raw.vehicle_number
    else:  # size-class
        size = setting.size if setting and setting.size else (n if n in FLEET_BY_SIZE else None)
        fleet = FLEET_BY_SIZE[size] if size in FLEET_BY_SIZE else raw.vehicle_number

    depot_deadline = sites[0].deadline
    shift_cap = depot_deadline if cfg.shift_cap == "depot-deadline" else float(cfg.shift_cap)

    return Instance(
        sites=sites,
        travel=travel,
        fleet_size=fleet,
        shift_cap=shift_cap,
        depot_deadline=depot_deadline,
        label=label if label is not None else raw.name,
        setting=setting,
    )


def _fields(tokens: list[str], line_no: int) -> list[float]:
    """The tokens as finite floats; SolomonParseError names the first that
    is not one."""
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise SolomonParseError(f"non-numeric field {tok!r}", line_no) from None
        if not math.isfinite(value):
            raise SolomonParseError(f"non-finite field {tok!r}", line_no)
        values.append(value)
    return values


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
