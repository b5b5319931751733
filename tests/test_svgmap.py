import math

from barrow import Point2, Triangle, grid_scan
from barrow.svgmap import REGION_COLORS, _ramp_color, render_region_map


def scan(unit_right, resolution=6, bbox=(-0.5, -0.5, 1.5, 1.5)):
    return grid_scan(unit_right, bbox, resolution)


def test_render_is_deterministic(unit_right):
    grid = scan(unit_right)
    assert render_region_map(grid, unit_right) == render_region_map(grid, unit_right)


def test_render_structure(unit_right):
    grid = scan(unit_right)
    svg = render_region_map(grid, unit_right)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<rect ") == 36
    assert svg.count("<circle ") == 3
    assert '<g id="regions">' in svg
    assert '<g id="slack"' not in svg


def test_render_uses_fixed_palette(unit_right):
    grid = scan(unit_right)
    svg = render_region_map(grid, unit_right)
    present = {row.region for row in grid.rows}
    for region in present:
        assert REGION_COLORS[region] in svg


def test_heatmap_layer_covers_slack_cells():
    # The vertex-coincident cell has NaN bisector columns but a defined
    # slack, so the heatmap still covers all four cells.
    t = Triangle(Point2(0.5, 0.5), Point2(2.0, 0.0), Point2(0.0, 2.0))
    grid = grid_scan(t, (-1.0, -1.0, 1.0, 1.0), 2)
    assert sum(1 for row in grid.rows if math.isnan(row.lp_b)) == 1
    svg = render_region_map(grid, t, heatmap=True)
    assert '<g id="slack" opacity="0.55">' in svg
    head, _, tail = svg.partition('<g id="slack"')
    assert head.count("<rect ") == 4
    assert tail.count("<rect ") == 4


def test_ramp_color_endpoints():
    assert _ramp_color(0.0) == "#0d0887"
    assert _ramp_color(1.0) == "#f0f921"
    assert _ramp_color(0.5) == "#7e8054"


def test_aspect_ratio_follows_bbox(unit_right):
    grid = grid_scan(unit_right, (0.0, 0.0, 2.0, 1.0), 4)
    svg = render_region_map(grid, unit_right)
    assert 'width="480.000000" height="240.000000"' in svg
