import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import compare_outputs  # noqa: E402


def _outputs(**overrides):
    arrays = {"fig3a::resonant::signal": np.array([0.0, 0.5, 1.0]),
              "fig4b::fringe::signal": np.array([1.0, -0.5]),
              "fig4b::fringe::n_phi": np.array([0.9, 0.2])}
    return {**arrays, **overrides}


def test_largest_deviation_per_product_and_overall():
    change = _outputs(**{"fig4b::fringe::n_phi": np.array([0.9, 0.2 + 3e-16]),
                         "fig4b::fringe::signal": np.array([1.0, -0.5 - 1e-16])})
    lines, ok = compare_outputs.compare(_outputs(), change)
    assert ok
    assert lines[0] == "fig3a::resonant: largest |change - base| 0"
    assert lines[1] == f"fig4b::fringe: largest |change - base| {abs(0.2 + 3e-16 - 0.2):.3g}"
    assert lines[-1] == f"overall: largest |change - base| {abs(0.2 + 3e-16 - 0.2):.3g} over 2 products"


def test_missing_output_fails_naming_the_tree():
    change = _outputs()
    del change["fig4b::fringe::n_phi"]
    lines, ok = compare_outputs.compare(_outputs(), change)
    assert not ok
    assert "error: n_phi of fig4b::fringe is missing from the change" in lines
    lines, ok = compare_outputs.compare(change, _outputs())
    assert not ok and "error: n_phi of fig4b::fringe is missing from the base" in lines


def test_shape_change_fails():
    lines, ok = compare_outputs.compare(_outputs(), _outputs(**{"fig3a::resonant::signal": np.zeros(4)}))
    assert not ok
    assert lines[0] == "error: signal of fig3a::resonant has shape (4,), against (3,) in the base"
    # the other product is still compared
    assert lines[1] == "fig4b::fringe: largest |change - base| 0"
