"""Sudoku benchmark tests: the free-cell scatter/gather adjoint pair behind
the objective's closed-form node, the digit-count penalty against the grid
form, the argmax completion, grid validity, clue checks, deterministic puzzle
generation and the puzzle-file parser."""

import numpy as np
import pytest

from redge.benchmarks.sudoku import (
    DIGITS,
    GRID_CELLS,
    SudokuBatch,
    SudokuProblem,
    _complete_grid,
    generate_puzzles,
    is_valid_grid,
    load_puzzle_file,
    parse_puzzles,
    penalty_batch,
)


def test_free_scatter_gather_adjoint_pair():
    # <g, S x> = <S^T g, x> for the free rows' group counts S and their
    # gather S^T, on puzzles with different clue patterns.
    rng = np.random.default_rng(0)
    for seed in range(3):
        batch = SudokuBatch(generate_puzzles(3, seed))
        for _ in range(4):
            x = rng.standard_normal((batch.total_free, DIGITS))
            g = rng.standard_normal((batch.count * 27, DIGITS))
            lhs = np.vdot(g, batch.scatter_free(x))
            rhs = np.vdot(batch.gather_free(g), x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hard_penalties_match_the_grid_form():
    # Counting digits per (draw, puzzle, group) gives exactly the penalty of
    # the assembled one-hot grids, on random and on near-solved completions.
    rng = np.random.default_rng(2)
    problems = generate_puzzles(4, 5)
    batch = SudokuBatch(problems)
    solutions = np.concatenate([_complete_grid(rng)[p.free_cells] - 1 for p in problems])
    for trial in range(20):
        digits = rng.integers(0, DIGITS, (3, batch.total_free))
        if trial % 2:
            digits = np.where(rng.random(digits.shape) < 0.9, solutions, digits)
        onehots = np.eye(DIGITS)[digits]
        want = penalty_batch(batch.grids_from_free(onehots))
        np.testing.assert_array_equal(batch.hard_penalties(digits), want)


@pytest.mark.parametrize("seed", range(5))
def test_complete_grid_is_valid(seed):
    grid = _complete_grid(np.random.default_rng(seed))
    assert is_valid_grid(grid - 1)
    onehot = np.eye(DIGITS)[grid - 1]
    assert penalty_batch(onehot) == 0.0


def test_argmax_grids_fill_the_free_cells_of_the_clues():
    rng = np.random.default_rng(3)
    problems = generate_puzzles(2, 6)
    batch = SudokuBatch(problems)
    logits = rng.standard_normal((batch.total_free, DIGITS))
    grids = batch.argmax_grids(logits)
    assert grids.shape == (2, GRID_CELLS)
    free = np.argmax(logits, axis=1)
    for i, p in enumerate(problems):
        given = p.clues > 0
        np.testing.assert_array_equal(grids[i][given], p.clues[given] - 1)
    np.testing.assert_array_equal(grids.ravel()[batch.scatter_index], free)


@pytest.mark.parametrize("cells,group", [
    ((0, 1), "row 1"),
    ((4, 76), "column 5"),
    ((60, 80), "block 9"),
])
def test_repeated_clue_digit_rejected(cells, group):
    clues = np.zeros(GRID_CELLS, dtype=np.int64)
    clues[list(cells)] = 5
    with pytest.raises(ValueError, match=f"clue digit 5 repeats in {group}$"):
        SudokuProblem.from_clues(clues)
    with pytest.raises(ValueError, match=f"line 1: clue digit 5 repeats in {group}$"):
        parse_puzzles("".join(str(d) if d else "." for d in clues))


def test_invalid_grid_rejected():
    grid = _complete_grid(np.random.default_rng(0)) - 1
    grid[[0, 1]] = grid[[1, 0]]
    assert not is_valid_grid(grid)


def test_generate_puzzles_deterministic_per_seed():
    a, b = generate_puzzles(3, 7), generate_puzzles(3, 7)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.clues, pb.clues)
    other = generate_puzzles(3, 8)
    assert any(not np.array_equal(pa.clues, pc.clues) for pa, pc in zip(a, other))
    for p in a:
        assert 28 <= GRID_CELLS - p.free_count <= 34


def puzzle_line(clues, blank="."):
    return "".join(blank if d == 0 else str(d) for d in clues)


def test_parse_puzzles_reads_blanks_and_skips_comments():
    clues = generate_puzzles(2, 9)
    text = "\n".join(["# two puzzles", "", puzzle_line(clues[0].clues, "."),
                      "   ", puzzle_line(clues[1].clues, "0") + "  "])
    parsed = parse_puzzles(text)
    assert len(parsed) == 2
    for got, want in zip(parsed, clues):
        np.testing.assert_array_equal(got.clues, want.clues)
        np.testing.assert_array_equal(got.free_cells, want.free_cells)


@pytest.mark.parametrize("line,message", [
    ("1" * 80, "line 2: expected 81 characters, got 80"),
    ("1" * 82, "line 2: expected 81 characters, got 82"),
    ("x" + "." * 80, "line 2: 'x' is neither a digit nor '.'"),
    ("." * 40 + "-" + "." * 40, "line 2: '-' is neither a digit nor '.'"),
    ("." * 80 + "\u0663", "line 2: '\u0663' is neither a digit nor '.'"),
])
def test_parse_puzzles_names_the_bad_line(line, message):
    with pytest.raises(ValueError, match=message):
        parse_puzzles("# header\n" + line)


def test_load_puzzle_file(tmp_path):
    clues = generate_puzzles(1, 3)[0].clues
    path = tmp_path / "puzzles.txt"
    path.write_text("# one puzzle\n" + puzzle_line(clues) + "\n", encoding="utf-8")
    (parsed,) = load_puzzle_file(path)
    np.testing.assert_array_equal(parsed.clues, clues)
