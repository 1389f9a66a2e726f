"""AIE placement strategy (paper Section III-C, Fig. 5).

A task with engine parallelism ``k`` needs ``2k - 1`` orth-layers of
``k`` orth-AIEs, ``k`` norm-AIEs, and assorted mem-AIEs.  The array has
8 rows, of which the first and last are reserved as *boundary rows*:
they host mem-layers (intermediate storage) rather than orth-layers,
because an orth-layer in the top row would have no subsequent row to
relocate its output into.  That leaves ``rows - 2 = 6`` usable rows per
column *lane* of width ``k``.

Placement rules implemented here:

* The ``2k - 1`` orth-layers are split into ``g = ceil((2k-1)/6)``
  chunks; each chunk occupies one lane, lanes are allocated
  left-to-right.
* When a task fits in a single chunk and several tasks fit vertically
  (``floor(6 / (2k-1)) > 1``), tasks stack within a lane — this is what
  lets 26 two-column tasks coexist on a 50-column array.
* Each chunk crossing costs ``2k`` mem-AIEs: ``k`` in the top boundary
  row of the outgoing lane (the layer output the array edge prevents
  from relocating downward) and ``k`` in the bottom boundary row of the
  incoming lane (DMA landing buffers).
* The shifting ring's ``k - 1`` wrap transfers need DMA landing
  buffers too; they are placed in free boundary-row tiles of the task's
  first lane (the paper's "DMA-layers" absorb the same traffic).
* Norm-AIEs are placed in idle tiles starting from the right edge of
  the array.

The resulting counts feed the resource model (Eq. 16) and the DSE's
stage-1 feasibility filter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import PlacementError
from repro.core.config import HeteroSVDConfig
from repro.versal.array import AIEArray
from repro.versal.device import DeviceSpec
from repro.versal.tile import TileKind

Coord = Tuple[int, int]


@dataclass
class TaskPlacement:
    """Tile assignments of one task pipeline.

    Attributes:
        task: Task index.
        orth: Mapping ``(layer, slot) -> coord`` for the orth-AIEs.
        mem: Coordinates of this task's mem-AIEs.
        norm: Coordinates of this task's norm-AIEs.
        lanes: ``(first_col, n_cols)`` of each lane the task occupies.
    """

    task: int
    orth: Dict["tuple[int, int]", Coord] = field(default_factory=dict)
    mem: List[Coord] = field(default_factory=list)
    norm: List[Coord] = field(default_factory=list)
    lanes: List["tuple[int, int]"] = field(default_factory=list)

    @property
    def n_orth(self) -> int:
        """Orth-AIEs used by the task."""
        return len(self.orth)

    @property
    def n_mem(self) -> int:
        """Mem-AIEs used by the task."""
        return len(self.mem)

    @property
    def n_norm(self) -> int:
        """Norm-AIEs used by the task."""
        return len(self.norm)


@dataclass
class Placement:
    """A placed HeteroSVD design.

    Attributes:
        config: The design point that was placed.
        array: The array carrying the tile-role assignments.
        tasks: Per-task placements.
    """

    config: HeteroSVDConfig
    array: AIEArray
    tasks: List[TaskPlacement]

    @property
    def num_orth(self) -> int:
        """Total orth-AIEs (Table I: ``k(2k-1) * P_task``)."""
        return sum(t.n_orth for t in self.tasks)

    @property
    def num_norm(self) -> int:
        """Total norm-AIEs (Table I: ``k * P_task``)."""
        return sum(t.n_norm for t in self.tasks)

    @property
    def num_mem(self) -> int:
        """Total mem-AIEs (determined by this placement)."""
        return sum(t.n_mem for t in self.tasks)

    @property
    def num_aie(self) -> int:
        """Total AIE tiles consumed."""
        return self.num_orth + self.num_norm + self.num_mem

    @property
    def num_plio(self) -> int:
        """Total PLIOs consumed (6 per task)."""
        return self.config.total_plios

    def aie_utilization(self) -> float:
        """Fraction of the array's tiles in use."""
        return self.num_aie / self.array.n_tiles


def _chunk_layers(n_layers: int, usable_rows: int) -> List[int]:
    """Split a layer count into lane-sized chunks."""
    chunks = []
    remaining = n_layers
    while remaining > 0:
        take = min(usable_rows, remaining)
        chunks.append(take)
        remaining -= take
    return chunks


class _Lane:
    """A column range of the array with vertical chunk occupancy."""

    def __init__(self, first_col: int, width: int, usable_rows: int):
        self.first_col = first_col
        self.width = width
        self.usable_rows = usable_rows
        self.used_rows = 0

    def fits(self, height: int) -> bool:
        """Whether a chunk of ``height`` layers still fits."""
        return self.used_rows + height <= self.usable_rows

    def take(self, height: int) -> int:
        """Reserve ``height`` rows; returns the row offset."""
        offset = self.used_rows
        self.used_rows += height
        return offset


class _ColumnAllocator:
    """Hands out chunk slots, stacking chunks vertically within lanes.

    Chunks from different tasks share a lane whenever their heights
    fit within the usable rows — this is what lets, e.g., 26
    three-layer tasks coexist on a 50-column array, or the one-layer
    tail chunks of several ``P_eng = 4`` tasks share a single lane.
    """

    def __init__(self, total_cols: int, usable_rows: int):
        self.total_cols = total_cols
        self.usable_rows = usable_rows
        self.next_col = 0
        self.lanes: List[_Lane] = []

    def place_chunk(self, width: int, height: int) -> "tuple[_Lane, int]":
        """Reserve ``height`` rows of a ``width``-column lane.

        Returns:
            ``(lane, row_offset)``.

        Raises:
            PlacementError: when no lane fits and no columns remain.
        """
        for lane in self.lanes:
            if lane.width == width and lane.fits(height):
                return lane, lane.take(height)
        if self.next_col + width > self.total_cols:
            raise PlacementError(
                f"array out of columns: need {width} more at column "
                f"{self.next_col} of {self.total_cols}"
            )
        lane = _Lane(self.next_col, width, self.usable_rows)
        self.next_col += width
        self.lanes.append(lane)
        return lane, lane.take(height)


def place(config: HeteroSVDConfig, array: Optional[AIEArray] = None) -> Placement:
    """Place a HeteroSVD design point on the AIE array.

    Args:
        config: The design point (``P_eng``, ``P_task``).
        array: Array to place on; a fresh one is built from the
            config's device by default.

    Returns:
        The :class:`Placement` with per-task tile assignments.

    Raises:
        PlacementError: when the design does not fit the array
            geometrically.
    """
    array = array if array is not None else AIEArray(config.device)
    if array.rows < 3:
        raise PlacementError(
            f"array needs at least 3 rows for boundary mem-layers, has "
            f"{array.rows}"
        )
    k = config.p_eng
    usable_rows = array.rows - 2
    layers = config.orth_layers
    chunks = _chunk_layers(layers, usable_rows)
    allocator = _ColumnAllocator(array.cols, usable_rows)
    tasks: List[TaskPlacement] = []

    # Pass 1: place every task's orth chunks; mem placement is deferred
    # so its fallback search cannot collide with later orth lanes.
    mem_requests: List["tuple[TaskPlacement, _Lane, int, int]"] = []
    for task_index in range(config.p_task):
        task = TaskPlacement(task=task_index)
        layer = 0
        task_lanes: List[_Lane] = []
        for chunk_index, chunk_size in enumerate(chunks):
            lane, row_offset = allocator.place_chunk(k, chunk_size)
            if lane.first_col not in [l.first_col for l in task_lanes]:
                task_lanes.append(lane)
                task.lanes.append((lane.first_col, k))
            for local in range(chunk_size):
                row = 1 + row_offset + local
                for slot in range(k):
                    coord = (row, lane.first_col + slot)
                    array.assign(coord, TileKind.ORTH)
                    task.orth[(layer, slot)] = coord
                layer += 1
            if chunk_index > 0:
                # Chunk crossing: k output-staging buffers near the
                # outgoing lane plus k DMA landing buffers near the
                # incoming lane (the mem-layers of Fig. 5).
                out_lane = task_lanes[-2] if len(task_lanes) >= 2 else lane
                mem_requests.append((task, out_lane, array.rows - 1, k))
                mem_requests.append((task, lane, 0, k))

        # Wrap-around DMA landing buffers (the shifting ring's k-1 long
        # transfers) in boundary tiles of the task's first lane.
        mem_requests.append((task, task_lanes[0], 0, k - 1))
        tasks.append(task)

    # Pass 2: mem-AIEs; pass 3: norm-AIEs.
    for task, lane, preferred_row, count in mem_requests:
        _place_mem_tiles(array, task, lane, preferred_row, count)
    _place_norm_aies(array, tasks, config)
    return Placement(config=config, array=array, tasks=tasks)


def _place_mem_tiles(
    array: AIEArray, task: TaskPlacement, lane: _Lane, preferred_row: int, count: int
) -> None:
    """Place ``count`` mem-AIEs, preferring a lane's boundary row.

    Falls back to the other boundary row of the lane, then to any idle
    tile scanning from the left edge — DMA traffic is location-flexible,
    which is why mem-AIEs can live anywhere (the paper's DMA-layers are
    simply the nearest convenient columns).
    """
    if count <= 0:
        return
    placed = 0
    rows = [preferred_row, array.rows - 1 - preferred_row]
    for row in rows:
        for col in range(lane.first_col, lane.first_col + lane.width):
            if placed >= count:
                return
            if array.tile(row, col).kind is TileKind.IDLE:
                array.assign((row, col), TileKind.MEM)
                task.mem.append((row, col))
                placed += 1
    for col in range(array.cols):
        for row in range(array.rows):
            if placed >= count:
                return
            if array.tile(row, col).kind is TileKind.IDLE:
                array.assign((row, col), TileKind.MEM)
                task.mem.append((row, col))
                placed += 1
    if placed < count:
        raise PlacementError(
            f"task {task.task}: array exhausted placing "
            f"{count - placed} mem-AIEs"
        )


def _place_norm_aies(
    array: AIEArray, tasks: List[TaskPlacement], config: HeteroSVDConfig
) -> None:
    """Place each task's k norm-AIEs in idle tiles from the right edge."""
    candidates = [
        (r, c)
        for c in range(array.cols - 1, -1, -1)
        for r in range(array.rows)
        if array.tile(r, c).kind is TileKind.IDLE
    ]
    cursor = 0
    for task in tasks:
        for _ in range(config.norm_aies_per_task):
            if cursor >= len(candidates):
                raise PlacementError(
                    f"no idle tiles left for norm-AIEs of task {task.task}"
                )
            coord = candidates[cursor]
            cursor += 1
            array.assign(coord, TileKind.NORM)
            task.norm.append(coord)


@dataclass(frozen=True)
class _FootprintKey:
    """Memo key of :func:`_footprint`; the config rides along unhashed."""

    device: DeviceSpec
    p_eng: int
    p_task: int
    config: HeteroSVDConfig = field(compare=False)


# Unbounded on purpose: at most 11 x 26 keys per device, and the values
# are immutable (a tuple or a message string).
@functools.lru_cache(maxsize=None)
def _footprint(key: _FootprintKey) -> Union[Tuple[int, int, int], str]:
    """``(orth, norm, mem)`` counts of a placement, or its error text."""
    try:
        placed = place(key.config)
    except PlacementError as exc:
        return str(exc)
    return placed.num_orth, placed.num_norm, placed.num_mem


def placement_footprint(config: HeteroSVDConfig) -> Tuple[int, int, int]:
    """``(num_orth, num_norm, num_mem)`` of ``place(config)``, memoised.

    Placement reads only the device, ``P_eng`` and ``P_task``, so the
    counts are computed once per process for each such triple — a DSE
    sweep revisits the same few hundred keys for every matrix size,
    ordering and frequency.  Use :func:`place` for the tile
    assignments themselves.

    Raises:
        PlacementError: with the message :func:`place` raised.
    """
    result = _footprint(
        _FootprintKey(config.device, config.p_eng, config.p_task, config)
    )
    if isinstance(result, str):
        raise PlacementError(result)
    return result


def max_feasible_tasks(config: HeteroSVDConfig) -> int:
    """Largest ``P_task`` that places successfully for this ``P_eng``.

    Used by the DSE's stage 1 ("maximize task parallelism by fully
    utilizing resources according to our placement strategy").
    """
    best = 0
    for p_task in range(1, 27):
        candidate = config.with_tasks(p_task)
        try:
            placement_footprint(candidate)
        except PlacementError:
            break
        best = p_task
    return best
