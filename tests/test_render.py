import math

import pytest

from lilyseg import (
    InvalidInput,
    MarkedPointSet,
    RadiiAssignment,
    Rectangle,
    Solution,
    render_svg,
    sample_poisson,
    solve_fixed_point,
)


def test_f3_model1_rendering(f3):
    solution = solve_fixed_point(f3, 1)
    svg = render_svg(solution)
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == 3
    assert svg.count("<line") == 3
    assert svg.count("seg-inf") >= 1  # the infinite carrier, clipped and dashed


def test_doublet_highlight(f2):
    solution = solve_fixed_point(f2, 2)
    svg = render_svg(solution, highlight="doublets")
    assert svg.count('seg-hl"') == 2


def test_cycle_highlight(f3c):
    solution = solve_fixed_point(f3c, 1)
    svg = render_svg(solution, highlight="cycles")
    assert svg.count('seg-hl"') == 3


def test_no_highlight_by_default(f2):
    solution = solve_fixed_point(f2, 2)
    assert 'seg-hl"' not in render_svg(solution)


def test_empty_canvas():
    solution = Solution(MarkedPointSet(()), 1, RadiiAssignment(()), "fixed_point", 0)
    svg = render_svg(solution)
    assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")
    assert "<line" not in svg and "<circle" not in svg


def test_deterministic_output(f3):
    solution = solve_fixed_point(f3, 1)
    assert render_svg(solution) == render_svg(solution)


def test_clip_to_window():
    mps = sample_poisson(1.0, Rectangle.square(8.0), seed=2)
    solution = solve_fixed_point(mps, 1)
    svg = render_svg(solution, clip_to_window=True)
    # Infinite carriers are cut exactly at the window rectangle.
    import re

    for line in svg.splitlines():
        if "seg-inf" not in line:
            continue
        for m in re.finditer(r'(?:x1|x2|y1|y2)="([-0-9.]+)"', line):
            assert -4.0 - 1e-6 <= float(m.group(1)) <= 4.0 + 1e-6


def test_clip_requires_rectangle(f3):
    solution = solve_fixed_point(f3, 1)
    with pytest.raises(ValueError):
        render_svg(solution, clip_to_window=True)


def test_unknown_highlight_rejected(f2):
    solution = solve_fixed_point(f2, 1)
    with pytest.raises(InvalidInput):
        render_svg(solution, highlight="sparkles")
