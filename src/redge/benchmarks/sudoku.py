"""Sudoku completion as penalized optimization over 81 cell categoricals.

A grid is an 81x9 matrix of per-cell digit distributions (or one-hots).  For
each of the 27 groups (9 rows, 9 columns, 9 blocks) the digit-count vector of
a valid completion is all ones, so the penalty

    sum_g  | sum_{i in g} x_i  -  1 |_2^2

is zero exactly on valid grids.  Clue cells are frozen one-hot constants and
never optimized; only the free cells carry logits.

The free cells of many puzzles stack into one logit matrix that the batched
runner optimizes in one pass.  :class:`SudokuBatch` keys each free cell by its
row, column and box; its objective (one closed-form node) and hard penalties
count digits over those keys, so no step assembles grids or group sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import Node

GRID_CELLS = 81
DIGITS = 9
_CELL_CHARS = frozenset(".0123456789")


_CELLS = range(GRID_CELLS)
# each cell's row, column and block group, kind-major; plain lists, so that
# importing the module calls no numpy routine (its first call adds RSS)
_CELL_GROUPS = ([c // 9 for c in _CELLS], [9 + c % 9 for c in _CELLS],
                [18 + 3 * (c // 27) + c % 9 // 3 for c in _CELLS])
GROUPS = [[c for c in _CELLS if _CELL_GROUPS[g // 9][c] == g] for g in range(27)]
_GROUP_NAMES = [f"{kind} {i + 1}" for kind in ("row", "column", "block") for i in range(9)]


def group_sums(grids: np.ndarray) -> np.ndarray:
    """Digit counts per group: (..., 81, 9) -> (..., 27, 9).

    Order: 9 row groups, 9 column groups, 9 blocks.
    """
    lead = grids.shape[:-2]
    cells = grids.reshape(lead + (9, 9, 9))
    row_g = cells.sum(axis=-2)
    col_g = cells.sum(axis=-3)
    block_g = (grids.reshape(lead + (3, 3, 3, 3, 9))
               .sum(axis=(-4, -2))
               .reshape(lead + (9, 9)))
    return np.concatenate([row_g, col_g, block_g], axis=-2)


def penalty_batch(grids: np.ndarray) -> np.ndarray:
    """Penalty of each (..., 81, 9) grid, without a tape."""
    return ((group_sums(grids) - 1.0) ** 2).sum(axis=(-2, -1))


def is_valid_grid(indices) -> bool:
    """Direct validity check: every group holds each digit exactly once."""
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if indices.shape != (GRID_CELLS,):
        raise ValueError("expected 81 cell digits")
    return all(sorted(indices[g]) == list(range(9)) for g in GROUPS)


@dataclass(frozen=True)
class SudokuProblem:
    """A puzzle: clue digits (0 = blank), derived masks and constants."""

    clues: np.ndarray         # (81,) ints in [0, 9], 0 for blank
    free_cells: np.ndarray    # indices of blank cells
    clue_onehot: np.ndarray   # (81, 9) with one-hot clue rows, zero free rows

    @classmethod
    def from_clues(cls, clues) -> "SudokuProblem":
        clues = np.asarray(clues, dtype=np.int64).ravel()
        if clues.shape != (GRID_CELLS,) or clues.min() < 0 or clues.max() > 9:
            raise ValueError("clues must be 81 digits in [0, 9]")
        free = np.flatnonzero(clues == 0)
        onehot = np.zeros((GRID_CELLS, DIGITS))
        given = np.flatnonzero(clues > 0)
        onehot[given, clues[given] - 1] = 1.0
        repeats = np.argwhere(group_sums(onehot) > 1)
        if repeats.size:
            group, digit = repeats[0]
            raise ValueError(f"clue digit {digit + 1} repeats in {_GROUP_NAMES[group]}")
        return cls(clues=clues, free_cells=free, clue_onehot=onehot)

    @property
    def free_count(self) -> int:
        return self.free_cells.size


def parse_puzzles(text: str):
    """Parse puzzles from text, one per line: 81 characters, each a digit 1-9
    or a blank ('.' or '0').  Blank lines and lines starting with '#' are
    skipped."""
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if len(line) != GRID_CELLS:
            raise ValueError(f"line {lineno}: expected 81 characters, got {len(line)}")
        bad = next((ch for ch in line if ch not in _CELL_CHARS), None)
        if bad is not None:
            raise ValueError(f"line {lineno}: {bad!r} is neither a digit nor '.'")
        digits = [0 if ch == "." else int(ch) for ch in line]
        try:
            problems.append(SudokuProblem.from_clues(digits))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return problems


def load_puzzle_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_puzzles(fh.read())


def _complete_grid(rng: np.random.Generator) -> np.ndarray:
    """Random full valid grid via backtracking with shuffled digit order."""
    grid = np.zeros(GRID_CELLS, dtype=np.int64)
    cell_groups = list(zip(*_CELL_GROUPS))
    used = [set() for _ in range(27)]

    def fill(cell: int) -> bool:
        if cell == GRID_CELLS:
            return True
        digits = rng.permutation(9) + 1
        for d in digits:
            if any(d in used[g] for g in cell_groups[cell]):
                continue
            grid[cell] = d
            for g in cell_groups[cell]:
                used[g].add(d)
            if fill(cell + 1):
                return True
            grid[cell] = 0
            for g in cell_groups[cell]:
                used[g].discard(d)
        return False

    if not fill(0):
        raise RuntimeError("backtracking failed to produce a grid")
    return grid


def generate_puzzles(count: int, seed: int, min_clues: int = 28, max_clues: int = 34):
    """Deterministically generate solvable puzzles by masking complete grids."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5D0)))
    problems = []
    for _ in range(count):
        full = _complete_grid(rng)
        keep = int(rng.integers(min_clues, max_clues + 1))
        kept = rng.choice(GRID_CELLS, size=keep, replace=False)
        clues = np.zeros(GRID_CELLS, dtype=np.int64)
        clues[kept] = full[kept]
        problems.append(SudokuProblem.from_clues(clues))
    return problems


# ---------------------------------------------------------------------------
# Batched objective over several puzzles
# ---------------------------------------------------------------------------


class SudokuBatch:
    """Stacks the free cells of several puzzles into one logit matrix.

    The objective sums the penalty of the grids assembled from the free and
    clue rows; its VJP returns only the free rows, so clue cells get none.
    It and :meth:`hard_penalties` count digits over one key set, ``free_keys``.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        if not self.problems:
            raise ValueError("SudokuBatch needs at least one puzzle, got an empty puzzle list")
        self.total_free = sum(p.free_count for p in self.problems)
        # global row index (puzzle-major) of each stacked free cell
        self.scatter_index = np.concatenate([
            p.free_cells + GRID_CELLS * i for i, p in enumerate(self.problems)
        ])
        self.clue_matrix = np.concatenate([p.clue_onehot for p in self.problems], axis=0)
        # The flat (puzzle, group, 0) key of each stacked free cell's row,
        # column and box, as a C-ordered (3, F) array (np.take keeps that
        # order) so that the keys of one draw are three contiguous runs over
        # F; those keys plus each digit, kept for the objective's count; and
        # the clue digit counts minus one, the offset from counts to excess.
        puzzle, cell = np.divmod(self.scatter_index, GRID_CELLS)
        self.free_keys = (puzzle * 27 + np.take(_CELL_GROUPS, cell, axis=1)) * DIGITS
        self.cell_keys = (self.free_keys[:, :, None] + np.arange(DIGITS)).ravel()
        self.clue_excess = group_sums(
            self.clue_matrix.reshape(self.count, GRID_CELLS, DIGITS)).astype(np.int64) - 1

    @property
    def count(self) -> int:
        return len(self.problems)

    def objective(self, x: Node) -> Node:
        """One node: sum of excess^2, excess = digit counts per (puzzle,
        group) - 1; the VJP is :meth:`gather_free` of 2 g excess."""
        if x.shape != (self.total_free, DIGITS):
            raise ValueError(f"objective expects ({self.total_free}, {DIGITS}) free-cell rows, "
                             f"got {x.shape}")
        excess = self.scatter_free(x.value) + self.clue_excess.reshape(-1, DIGITS)
        value = np.array([[np.square(excess).sum()]])
        return x.apply(value, lambda g: self.gather_free(g[0, 0] * 2.0 * excess))

    def scatter_free(self, free_rows: np.ndarray) -> np.ndarray:
        """Digit counts (P * 27, 9) of the free rows (F, 9) per (puzzle,
        group): one weighted count over the cells' row, column and box keys."""
        weights = np.broadcast_to(free_rows, (3,) + free_rows.shape).ravel()
        counts = np.bincount(self.cell_keys, weights, minlength=self.clue_excess.size)
        return counts.reshape(-1, DIGITS)

    def gather_free(self, groups: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`scatter_free`: row + column + box entries of
        ``groups`` (P * 27, 9) at each free cell, as (F, 9)."""
        return np.take(groups, self.free_keys // DIGITS, axis=0).sum(axis=0)

    def grids_from_free(self, free_rows: np.ndarray) -> np.ndarray:
        """Assemble (..., P, 81, 9) grids from stacked free rows (..., F, 9)."""
        lead = free_rows.shape[:-2]
        out = np.broadcast_to(self.clue_matrix, lead + self.clue_matrix.shape).copy()
        out[..., self.scatter_index, :] = free_rows
        return out.reshape(lead + (self.count, GRID_CELLS, DIGITS))

    def hard_penalties(self, digits: np.ndarray) -> np.ndarray:
        """Penalty (D, P) of the hard completions with free-cell digits (D, F),
        equal to ``penalty_batch`` of their one-hot grids; counting draw by
        draw keeps every array small, so steps do not grow and trim the heap."""
        out = np.empty((digits.shape[0], self.count), dtype=np.int64)
        for draw, row in enumerate(digits):
            counts = np.bincount((row + self.free_keys).ravel(), minlength=self.clue_excess.size)
            counts = counts.reshape(self.clue_excess.shape) + self.clue_excess
            np.square(counts, out=counts).sum(axis=(-2, -1), out=out[draw])
        return out

    def argmax_grids(self, free_logits: np.ndarray) -> np.ndarray:
        """Hard argmax completion of every puzzle: (P, 81) digit indices."""
        digits = np.concatenate([p.clues for p in self.problems]) - 1
        digits[self.scatter_index] = np.argmax(free_logits, axis=1)
        return digits.reshape(self.count, GRID_CELLS)
